(** Scenario execution: simulate, monitor all goals and subgoals
    (Table 5.3), and classify the violations (§5.1.2).

    Execution goes through [lib/exec]: outcomes are memoized in a
    process-wide cache keyed by a structural digest of the full scenario
    configuration, and fleet runs fan out over a fixed-size domain pool
    with deterministic (submission-order) results. *)

open Tl

type outcome = {
  scenario : Defs.t;
  trace : Trace.t;
  results : Vehicle.Monitors.result list;
  reports : (int * Rtmon.Report.t) list;  (** per parent goal 1–9 *)
  collided : bool;
  end_time : float;
}

(** The default classification window of §5.1.2 (±50 ms). *)
let default_window = 0.05

let classify ~window (s : Defs.t) trace results : outcome =
  let reports =
    List.map
      (fun n -> (n, Vehicle.Monitors.classify ~window results n))
      (List.init 9 (fun i -> i + 1))
  in
  let last = Trace.get trace (Trace.length trace - 1) in
  {
    scenario = s;
    trace;
    results;
    reports;
    collided = State.bool last Vehicle.Signals.collision;
    end_time = Trace.time trace (Trace.length trace - 1);
  }

(* Ticks simulated, so that a snapshot's [cell.sim] span time divided by
   this count is the kernel's own time per tick. *)
let m_ticks = Obs.Metrics.counter "sim.ticks"

(* Simulate and monitor one scenario, in a [cell.sim] and a
   [cell.monitor] span. Faults go straight onto the kernel's frames:
   each target is resolved to its slot once. *)
let monitored ~defects ~timing ~dynamics ~inject (s : Defs.t) =
  let world =
    Vehicle.System.world ~defects ~timing ~dynamics ~objects:s.Defs.objects
      ~events:s.Defs.events ()
  in
  let transform =
    if Inject.Plan.is_empty inject then None
    else
      Some
        (Inject.Plan.frame_interposer ~dt:Vehicle.System.dt inject
           ~slot:(Sim.World.slot world))
  in
  let trace =
    Obs.span "cell.sim" (fun () ->
        Vehicle.System.simulate ?transform ~duration:s.Defs.duration world)
  in
  Obs.Metrics.incr ~by:(Trace.length trace - 1) m_ticks;
  (trace, Obs.span "cell.monitor" (fun () -> Vehicle.Monitors.run trace))

(* ------------------------------------------------------------------ *)
(* Process-wide outcome cache: every consumer (experiments, export,
   simulate, tests, bench) shares simulated outcomes instead of
   re-running 20-second simulations from scratch.

   Two levels, because the classification window affects neither the
   simulation nor the goal monitors: the expensive simulate-and-monitor
   step is keyed by (scenario, defects, timing, dynamics) alone, and the
   classified outcome by the same key plus the window — so a window sweep
   re-simulates nothing. *)

(* Both levels are bounded by the same trace bytes (FIFO eviction,
   counted in [stats.evictions]): a week-long campaign or a long-lived
   daemon sweeping thousands of faults must not accumulate every
   20 k-state trace it ever simulated. The sim level is {!Trace_store} —
   the shared-trace store, with [trace_store.*] telemetry; the outcome
   level additionally varies per classification window (mirrored as
   cache.runner.outcome). An outcome holds its trace, so it weighs that
   trace's bytes: a lighter bound would keep traces the store has
   already let go. *)
let outcome_cache : (string, outcome) Exec.Memo.t =
  let weight o = Trace.approx_bytes o.trace in
  Exec.Memo.create ~capacity:Trace_store.budget_bytes ~weight ~name:"runner.outcome" ()

let cache_stats () = Exec.Memo.stats outcome_cache

let clear_cache () =
  Trace_store.clear ();
  Exec.Memo.clear outcome_cache

let run ?(use_cache = true) ?(defects = Vehicle.Defects.as_evaluated)
    ?(timing = Vehicle.Arbiter.default_timing)
    ?(dynamics = Vehicle.Plant.default_dynamics)
    ?(inject = Inject.Plan.empty) ?(window = default_window) (s : Defs.t) :
    outcome =
  if not use_cache then
    let trace, results = monitored ~defects ~timing ~dynamics ~inject s in
    classify ~window s trace results
  else
    (* [Defs.t] contains the scripted lead-speed closure; [Exec.Memo.digest]
       handles closures, and the cache never outlives the process. The
       injection plan is pure data (no closures, no PRNG state — runtime
       fault state is re-derived per run from the plan seed), so equal plans
       digest equally and campaign repeats hit the cache. *)
    let sim_key = Exec.Memo.digest (s, defects, timing, dynamics, inject) in
    Exec.Memo.find_or_add outcome_cache
      (Exec.Memo.digest (sim_key, window))
      (fun () ->
        let trace, results =
          Trace_store.find_or_simulate sim_key (fun () ->
              monitored ~defects ~timing ~dynamics ~inject s)
        in
        classify ~window s trace results)

(** The whole fleet, in [Defs.all] order, on the resident domain pool
    of [domains] workers. A task failure re-raises after the batch
    settles: consumers (sweeps, figures, estimates) index the fleet
    positionally, so it is never thinned. *)
let run_all ?domains ?use_cache ?defects ?timing ?dynamics ?window () =
  Obs.span "runner.fleet" (fun () ->
      Exec.Pool.map ?domains (run ?use_cache ?defects ?timing ?dynamics ?window) Defs.all)

(** Violating monitor entries only, for the Appendix D tables. *)
let violations (o : outcome) =
  List.filter (fun r -> r.Vehicle.Monitors.violations <> []) o.results

(** Aggregate composability estimate over a set of outcomes (§3.4). *)
let estimate (outcomes : outcome list) =
  Compose.Runtime.of_reports
    (List.concat_map (fun o -> List.map snd o.reports) outcomes)
