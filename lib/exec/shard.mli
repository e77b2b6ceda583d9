(** Multi-process sharded batch execution with crash isolation.

    {!Pool} parallelises a batch across domains of one process, so a
    single segfault, OOM kill, or runaway C stub still takes down the
    whole grid. A shard run splits the batch across [N] worker
    {e processes} instead — independently failing, independently
    restartable components beneath the supervision/journal layers
    ({!Supervise} wraps a shard run exactly as it wraps a pool run). The
    coordinator (the calling process) keeps all orchestration state: it
    assigns chunks of tasks to workers, collects results, detects worker
    death, requeues the dead worker's in-flight tasks, and respawns the
    worker up to a restart budget. Worker processes only ever compute.

    {1 Mechanism}

    OCaml 5 forbids [Unix.fork] once a domain has been spawned (and the
    restriction is permanent for the process), so workers are started by
    {e re-executing the current binary} ([Sys.executable_name]) with a
    marker environment variable set. Host executables must therefore call
    {!init} first thing in [main]: in the coordinator it is a no-op; in a
    freshly spawned worker it never returns — the process serves task
    frames and exits. Because workers run the same binary, closures
    marshalled with [Marshal.Closures] (the task function, its captured
    environment, and task values) transfer verbatim.

    {1 Warm fleets}

    Workers are {e resident} and found by their shape: the first run
    from a given coordinating domain with a given [(shards, domains)]
    shape spawns that fleet, and the fleet then stays warm across
    [try_map] calls from that domain until {!shutdown_fleets} or process
    exit. A worker serves exactly one bound job at a time, so fleets are
    keyed by the calling domain: concurrent coordinator domains (e.g. the
    serve daemon's executor lanes) get disjoint worker processes — a
    fleet-share partition of the machine — and "one coordinator per
    fleet" holds by construction. Domain ids are never reused, so no
    domain inherits another's fleet.
    A worker keeps its domain pool and any process-lifetime caches its
    tasks populate, so a campaign pays the spawn + handshake cost once,
    not once per batch of cells. Each call binds a fresh {e job} on the
    fleet: the task closure is marshalled once per worker per job, each
    task value once per job (the digested bytes are reused verbatim when
    a crash requeues the cell), and cells travel many-to-a-frame — enough
    per assignment for four waves per worker, and never fewer than the
    worker's domains ([max domains (ceil (n / (shards * 4)))]; the
    [shard.batch_size] histogram records the actual sizes). Each slot
    may be respawned twice per call; a slot that exhausted that budget
    in one job is respawned, with a fresh budget, at the start of the
    next.

    Coordinator and worker speak over a [socketpair] in {!Frame}, the
    one CRC-guarded record format the scenario journal and the service
    socket also use, here with magic ["SHD1"]. A torn frame (worker died
    mid-write) or corrupt frame (CRC mismatch) is dropped, the worker is
    declared dead, and its in-flight tasks are requeued; tasks are never
    lost and never double-settled.
    Every death path — crash, corrupt stream, restart-budget exhaustion,
    a coordinator exception escaping mid-settle — closes the worker's
    pipe descriptor and reaps the child before anything else happens, so
    neither descriptors nor zombies accumulate across jobs.

    {1 Liveness}

    A dead worker announces itself (EOF on its pipe), but a {e wedged}
    one — SIGSTOP, an open-pipe hang, a deadlocked C stub — does not,
    and before heartbeats it would stall the coordinator's [select]
    forever. While a worker holds a batch, a dedicated heartbeat domain
    inside it writes one [Heartbeat] frame per interval (0.2 s), sharing
    a write lock with result frames so the two never interleave. The
    coordinator tracks the instant it last heard from each busy worker
    (any bytes: results or heartbeats) and declares it hung when the
    silence exceeds [hang_timeout_s]: heartbeat silence is the fleet's
    only liveness rule. A hung worker is SIGKILLed and treated exactly
    like a crash: cells requeued, respawn under the restart budget,
    [shard.hangs_detected] incremented. A merely slow worker keeps
    heartbeating and is never killed. A task that busy-loops while its
    worker heartbeats is not caught: a cell simulates a bounded number of
    ticks, so such a task is a bug, and it would hang the in-process
    runner, which has no watchdog, all the same.

    {1 Graceful degradation}

    A spawn failure (an injected [spawn] fault, or a genuine
    [create_process] error) never aborts the run: the slot stays down
    and is counted in [shard.spawn_failures], and the remaining workers
    absorb the batch. If {e no} worker at all comes up at job start, the
    run falls back to an in-process {!Pool.try_map} on a domain pool —
    same [on_result] settle hook (called on the coordinator once the
    pool batch returns), bit-for-bit the same results — and counts
    [shard.fallbacks].

    {1 Determinism}

    Results are reported in submission order, like {!Pool}: result [i]
    always corresponds to input [i], regardless of the number of shards,
    chunk interleaving, worker crashes, or respawns. A crash costs only
    recomputation of the in-flight chunk.

    {1 Telemetry}

    A run maintains [shard.workers] (gauge: live workers),
    [shard.respawns], [shard.frames_sent] / [shard.frames_recv] /
    [shard.frames_dropped], [shard.cells_requeued],
    [shard.hangs_detected] (workers killed by the liveness sweep),
    [shard.heartbeats] (heartbeat frames received),
    [shard.spawn_failures], [shard.fallbacks] (counters), a
    [shard.frame_roundtrip_s] histogram (assign sent to result received,
    per batch member), a [shard.batch_size] histogram (cells per
    assignment frame), and per-worker [shard.worker<slot>.utilization]
    gauges (busy fraction of the run's wall time, set when the run
    settles; a coordinator other than the main domain sets
    [shard.d<id>.worker<slot>.utilization], [<id>] its domain id, so
    concurrent lanes do not clobber each other).

    The first shard run in a process sets [SIGPIPE] to ignore, so writes
    to a just-died worker surface as [EPIPE] (handled as worker death)
    rather than killing the coordinator, and registers an [at_exit] hook
    that shuts every resident fleet down. *)

exception Worker_failure of { printed : string; trace : string }
(** A task raised inside a worker process. Exceptions cannot travel
    between processes as values (an unmarshalled exception constructor no
    longer matches its own identity), so the worker ships the printed
    exception ([Printexc.to_string]) and its backtrace text instead.
    Carried as the [exn] of the task's {!Pool.error}. *)

exception Worker_crashed of { slot : int }
(** The error for tasks a job could not settle because every worker died
    and the restart budget ran out. [slot] is the shard slot that died
    last holding the task ([-1] when it was never assigned). Terminal for
    the job, not for the task: under {!Supervise} retries the next
    round is a new job whose slots respawn with a fresh budget. *)

module Frame : Frame.S
(** The pipe's instance of {!Frame}, with magic ["SHD1"] and payloads
    marshalled with [Closures]; exposed for direct unit testing. *)

val init : unit -> unit
(** Worker-mode intercept. Call first thing in [main] of every
    executable that runs sharded batches (directly or through
    [Scenarios.Campaign] / [Scenarios.Runner]).

    In an ordinary process this returns immediately. In a process
    spawned by a shard coordinator (recognised by the marker environment
    variable) it never returns: the process serves its assigned frames
    on the inherited socketpair and exits. An executable that skips
    {!init} still computes correct sharded results — but each "worker"
    would rerun that executable's [main] instead, typically rerunning
    the whole program per worker. *)

val warm : ?shards:int -> ?domains:int -> unit -> unit
(** [warm ~shards ~domains ()] spawns (or completes) the calling domain's
    resident fleet for that shape without running any tasks, so a
    subsequent [try_map] from the same domain — or a benchmark timing
    one — pays no spawn cost. Parameter defaults match {!try_map}.

    @raise Invalid_argument when called from inside a shard worker. *)

val shutdown_fleets : unit -> unit
(** Tear down every resident fleet: close each worker's pipe descriptor,
    kill and reap the process. Idempotent; also registered [at_exit] by
    the first shard run. Subsequent runs simply respawn. *)

val try_map :
  ?shards:int ->
  ?domains:int ->
  ?on_result:(int -> 'b -> unit) ->
  ?abort:(unit -> bool) ->
  ?chaos:Chaos.t ->
  ?hang_timeout_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, Pool.error) result list
(** [try_map f xs] runs [f] once over every element of [xs] across the
    calling domain's resident worker fleet (see {e Warm fleets} above) and
    returns result [i] for input [i], like {!Pool.try_map}. It never
    retries a task that failed: wrap it in {!Supervise.try_map} for retry
    and quarantine. A crash requeues the dead worker's in-flight cells
    and respawns the slot, at most twice per slot per call: crash
    recovery, not retry — the cells still run once as far as the caller
    can tell. If every slot is down, unsettled tasks fail with
    {!Worker_crashed}.

    - [shards] — worker process count (default: recommended domain count
      divided by [domains], at least 1).
    - [domains] — domains {e per worker}: each worker runs each batch on
      its resident {!Pool} of that size (default 1, i.e. sequential
      workers).
    - [on_result] — called in the coordinator as [on_result i v] the
      moment input [i] settles as [Ok v] (settle order, not submission
      order). This is the journal hook: results flow back to the
      coordinator's journal, keeping resume byte-identical. A hook that
      raises fails its task with that exception.
    - [abort] — cooperative-cancellation probe, polled once per
      coordinator loop turn (so within about a second even when idle).
      Once it answers [true], workers holding cells are killed (their
      in-flight compute is abandoned; slots respawn at the next call) and
      every unsettled task fails with {!Pool.Aborted} — already settled
      results are kept, and [on_result] has already fired for them, so a
      journaled campaign resumes exactly past the abort point.
    - [chaos] — test/CI-only fault plan (default {!Chaos.none}). Its
      worker faults are performed {e inside the worker} once its batch
      has computed, consulted per batch assignment with the
      {e job-global} batch sequence number (1-based, across all slots and
      respawns within one call), so a fault keyed on one number fires
      exactly once and the respawned worker replays the work cleanly:
      [torn] writes a partial frame then exits, [corrupt] flips a
      payload byte so the frame fails its CRC, [hang] stops heartbeating
      and holds the pipe open, [crash] exits without writing, and
      [slow] delays intact results while heartbeating — the fault that
      must {e not} trip hang detection. Its [spawn] fault fails the
      numbered spawn attempt (1-based across the call, initial fleet
      completion and respawns alike); genuine spawn errors take the
      same degradation path.
    - [hang_timeout_s] — declare a busy worker hung after this much
      silence (default 30 s; heartbeats every 0.2 s keep a healthy
      worker far inside it). See {e Liveness} above.

    A task that raised in a healthy worker fails with {!Worker_failure}.

    @raise Invalid_argument when called from inside a shard worker
    (nested sharding would fork-bomb the machine by re-execing workers
    from workers). *)
