(** The shared-trace store: one simulation per scenario configuration,
    arbitrarily many evaluations against it.

    A campaign grid varies faults, windows and monitors far faster than
    it varies the physics: every cell of a (fault × scenario) grid that
    agrees on the simulation inputs — scenario, defect set, timing,
    dynamics, injection plan — observes the {e same} trace. The store
    memoizes that trace (plus the goal-monitor results, which depend on
    nothing else) under a structural digest of exactly those inputs, so
    each distinct configuration simulates once per process and every
    other evaluation — window sweeps, fault classification, exports —
    reads the shared copy.

    Storage is single-flight and bounded by {!budget_bytes} (FIFO
    eviction) via {!Exec.Memo}. Telemetry: [trace_store.hits] /
    [trace_store.misses] count lookups, [trace_store.bytes] accumulates
    the approximate packed size ({!Tl.Trace.approx_bytes}) of every trace
    the store simulated — the trace memory the campaign paid for, as
    opposed to the work it avoided; at most {!budget_bytes} of it stays
    resident. *)

val find_or_simulate :
  string ->
  (unit -> Tl.Trace.t * Vehicle.Monitors.result list) ->
  Tl.Trace.t * Vehicle.Monitors.result list
(** [find_or_simulate key supply] — the trace (and monitor results) for
    the configuration digested as [key], simulating via [supply] only on
    a cold key. The key must digest every input the simulation reads
    (see {!Runner.run} for the canonical construction). *)

val budget_bytes : int
(** The most trace bytes ({!Tl.Trace.approx_bytes}) the store keeps
    (64 MiB); the oldest traces are evicted past it. *)

val stats : unit -> Exec.Memo.stats
(** Cumulative hit/miss/eviction counters of the underlying table. *)

val clear : unit -> unit
(** Drop every stored trace and reset the table's counters. *)
