(** Fault-injection campaigns: enumerate a fault-specimen × scenario grid,
    run every cell through the shared outcome cache on the domain pool, and
    report a detection-coverage matrix.

    Each cell compares an injected run against the fault-free baseline of
    the same scenario, both with every defect repaired
    ([Vehicle.Defects.repaired]), so new violations are attributable to
    the fault:

    - {e detected} — the fault produced a goal-level effect (a new
      vehicle-level violation, or a new collision) that some subgoal
      monitor anticipated within the classification window; the lead time
      is how far ahead the earliest new subgoal alarm ran;
    - {e missed} — a goal-level effect with no (timely) subgoal warning:
      the hierarchical monitors were defeated, e.g. because the fault
      blinds the very sensors the subgoals observe;
    - {e spurious} — subgoal alarms with no goal-level effect;
    - {e no effect} — the fault perturbed nothing the monitors judge.

    Monitors inhibited by degraded inputs (NaN / missing under dropout
    faults) are counted separately — an inhibited monitor is not a false
    negative, it is a known coverage gap. *)

type detection =
  | Detected of float  (** goal-level effect anticipated; lead time, s *)
  | Missed  (** goal-level effect, no timely subgoal warning *)
  | Spurious  (** subgoal alarms only *)
  | No_effect

let detection_to_string = function
  | Detected lead -> Fmt.str "detected (lead %.3fs)" lead
  | Missed -> "missed"
  | Spurious -> "spurious"
  | No_effect -> "no effect"

type goal_counts = {
  goal : int;  (** parent goal number 1–9 *)
  goal_hits : int;
  goal_false_negatives : int;
  goal_false_positives : int;
  goal_inhibited : int;
}

type cell = {
  scenario : int;
  fault : Inject.Fault.t;
  seed : int;  (** the campaign seed the cell ran under *)
  window : float;  (** the classification window, seconds *)
  detection : detection;
  hits : int;
  false_negatives : int;
  false_positives : int;
  inhibited : int;  (** inhibition intervals across all monitors *)
  inhibitions : (string * int) list;  (** per-monitor (id, intervals) *)
  goal_flips : (string * float) list;
      (** vehicle-level goal monitors the fault flipped — monitor id
          (["1"]..["9"], or ["collision"] for a fault-induced collision)
          with the first new-violation time, sorted by id. A cell's
          goal-level effect is the minimum over these times. *)
  sub_flips : (string * int * float) list;
      (** subgoal monitors with new violations — (id, parent goal,
          first new-violation time), sorted by id *)
  per_goal : goal_counts list;
      (** per-parent-goal classification counters, goals 1–9 in order;
          the cell hit/FN/FP totals above are their sums *)
  collided : bool;
  baseline_collided : bool;
}

type robustness = {
  executed : int;  (** cells simulated by this run *)
  replayed : int;  (** cells restored from the journal, not re-simulated *)
  retried : int;  (** executed cells that needed more than one attempt *)
  retries : int;  (** total extra attempts across the grid *)
  quarantined : int;  (** cells abandoned after exhausting their attempts *)
  degraded : bool;
      (** the journal hit a device error mid-campaign and switched to
          memory-only mode: results are complete but not durable, and a
          resume will re-execute the cells appended after the failure *)
}

type t = {
  seed : int;
  window : float;
  scenarios : int list;  (** column order *)
  cells : cell list;  (** fault-major, scenario-minor *)
  detected : int;
  missed : int;
  spurious : int;
  no_effect : int;
  hits : int;
  false_negatives : int;
  false_positives : int;
  inhibited : int;
  robustness : robustness;
}

type grid = {
  faults : Inject.Fault.t list;
  grid_scenarios : Defs.t list;
  seed : int;
}

(* Telemetry: deterministic cell accounting (the timing lives in the
   spans and in the pool/journal histograms). The per-phase spans —
   campaign.replay, cell.baseline, cell.injected, cell.classify,
   campaign.grid, and [Runner]'s cell.sim and cell.monitor inside each
   simulated run — let a snapshot show where a campaign's wall clock
   went. *)
let m_cells_executed = Obs.Metrics.counter "campaign.cells_executed"
let m_cells_replayed = Obs.Metrics.counter "campaign.cells_replayed"

(* ------------------------------------------------------------------ *)
(* Cell classification                                                 *)

(** Violations of an injected run with no corresponding baseline violation
    (within the window) — the fault's own footprint. *)
let new_intervals ~window base ivs =
  List.filter
    (fun iv ->
      not
        (List.exists (fun biv -> Rtmon.Violation.overlap_within ~window iv biv) base))
    ivs

let first_time = function
  | [] -> None
  | ivs ->
      Some
        (List.fold_left
           (fun acc (iv : Rtmon.Violation.interval) ->
             Float.min acc iv.Rtmon.Violation.start_time)
           infinity ivs)

let classify_cell ~window ~seed (fault : Inject.Fault.t)
    ~(baseline : Runner.outcome) (injected : Runner.outcome) : cell =
  let base_of (r : Vehicle.Monitors.result) =
    match
      List.find_opt
        (fun (b : Vehicle.Monitors.result) ->
          b.Vehicle.Monitors.entry.Vehicle.Monitors.id
          = r.Vehicle.Monitors.entry.Vehicle.Monitors.id)
        baseline.Runner.results
    with
    | Some b -> b.Vehicle.Monitors.violations
    | None -> []
  in
  (* Per-monitor first new-violation times — the raw material both for
     the cell's own detection verdict and for the fleet-scale analytics
     (cascade grouping, per-goal residual attribution) mined from the
     journal later. *)
  let flips loc_pred =
    List.filter_map
      (fun (r : Vehicle.Monitors.result) ->
        let e = r.Vehicle.Monitors.entry in
        if loc_pred e.Vehicle.Monitors.location then
          Option.map
            (fun t -> (e.Vehicle.Monitors.id, e.Vehicle.Monitors.parent, t))
            (first_time
               (new_intervals ~window (base_of r) r.Vehicle.Monitors.violations))
        else None)
      injected.Runner.results
  in
  let new_collision =
    if injected.Runner.collided && not baseline.Runner.collided then
      Some injected.Runner.end_time
    else None
  in
  let goal_flips =
    List.sort compare
      (List.map
         (fun (id, _, t) -> (id, t))
         (flips (fun l -> l = Vehicle.Monitors.Vehicle))
      @ match new_collision with None -> [] | Some t -> [ ("collision", t) ])
  in
  let sub_flips =
    List.sort compare (flips (fun l -> l <> Vehicle.Monitors.Vehicle))
  in
  let first = function
    | [] -> None
    | ts -> Some (List.fold_left Float.min infinity ts)
  in
  let goal_first = first (List.map snd goal_flips) in
  let sub_first = first (List.map (fun (_, _, t) -> t) sub_flips) in
  let detection =
    match (goal_first, sub_first) with
    | None, None -> No_effect
    | None, Some _ -> Spurious
    | Some g, Some s when s <= g +. window -> Detected (Float.max 0. (g -. s))
    | Some _, _ -> Missed
  in
  let totals = Rtmon.Report.totals (List.map snd injected.Runner.reports) in
  let inhibitions =
    List.filter_map
      (fun (r : Vehicle.Monitors.result) ->
        match r.Vehicle.Monitors.inhibited with
        | [] -> None
        | ivs -> Some (r.Vehicle.Monitors.entry.Vehicle.Monitors.id, List.length ivs))
      injected.Runner.results
  in
  let per_goal =
    List.map
      (fun (n, (r : Rtmon.Report.t)) ->
        {
          goal = n;
          goal_hits = r.Rtmon.Report.hits;
          goal_false_negatives = r.Rtmon.Report.false_negatives;
          goal_false_positives = r.Rtmon.Report.false_positives;
          goal_inhibited = r.Rtmon.Report.inhibited;
        })
      injected.Runner.reports
  in
  {
    scenario = injected.Runner.scenario.Defs.number;
    fault;
    seed;
    window;
    detection;
    hits = totals.Rtmon.Report.total_hits;
    false_negatives = totals.Rtmon.Report.total_false_negatives;
    false_positives = totals.Rtmon.Report.total_false_positives;
    inhibited =
      List.fold_left
        (fun acc (r : Vehicle.Monitors.result) ->
          acc + List.length r.Vehicle.Monitors.inhibited)
        0 injected.Runner.results;
    inhibitions;
    goal_flips;
    sub_flips;
    per_goal;
    collided = injected.Runner.collided;
    baseline_collided = baseline.Runner.collided;
  }

(* ------------------------------------------------------------------ *)
(* Grid execution                                                      *)

(** The journal key of one grid cell. Deliberately {e not} the runner's
    in-process cache digest: [Defs.t] carries the scripted lead-speed
    closure, whose [Marshal] image is only stable within one binary
    invocation, and a resume key must survive process death. Everything
    the cell's outcome depends on is closure-free pure data — the scenario
    {e number} (scenario definitions are versioned with the binary), the
    fault, the campaign seed, the window and the defect set ({!run}
    always passes [Vehicle.Defects.repaired], digested all the same so
    that keys stay those earlier journals hold) — so the key is stable
    across runs and independent of grid position: resuming with a
    reordered or enlarged grid still reuses every completed cell. *)
let cell_key ~seed ~window ~defects (fault : Inject.Fault.t) (s : Defs.t) =
  Exec.Memo.digest (s.Defs.number, fault, seed, window, defects)

(** Run a campaign grid. Every (fault, scenario) cell simulates once with
    the single-fault plan [Plan.make ~seed [fault]] — the plan seed is the
    campaign seed for every cell, so the cell's cache key depends only on
    (scenario, fault, seed), not on its grid position, and repeated or
    overlapping campaigns hit the outcome cache. Cells fan out over the
    domain pool in submission order; results are bit-for-bit identical
    sequential ([~domains:1]) and parallel.

    [journal] names an on-disk result journal: each completed cell is
    fsync-appended as it settles (from the pool domain that computed it,
    or from the coordinator as a shard worker's result frame arrives), so
    a killed campaign loses at most the cells in flight. With [resume]
    (default [false]) the journal is replayed first and only the missing
    cells execute — the resumed matrix is bit-for-bit the uninterrupted
    one; without [resume] an existing journal is truncated and the run
    starts fresh.

    [retries] (default 0) re-runs a failed cell up to that many extra
    times ({!Exec.Supervise}: immediate re-submission, per-cell attempt
    counts) on either runner; a cell still failing afterwards is
    quarantined — dropped from the matrix and counted in
    [robustness.quarantined] — instead of aborting the campaign. With
    [retries = 0] each cell runs once and the first cell failure
    re-raises after the batch settles. A shard worker crash is not a
    failure: its cells are requeued within the restart budget and never
    count as retries.

    [shards] switches the grid to multi-process execution on
    [Exec.Shard]: cells are simulated in [shards] resident worker
    processes (each with [domains] domains), while classification
    results, the journal and the cell counters stay with the
    coordinator. The matrix and CSV are bit-for-bit identical to the
    single-process run for any shard count, including across worker
    crashes.

    The journal degrades instead of aborting: a device error (ENOSPC,
    EIO) mid-campaign switches the writer to memory-only mode — the grid
    completes, [robustness.degraded] is raised, and only durability is
    lost. [chaos] injects a deterministic infrastructure-fault plan
    ({!Exec.Chaos}), passed whole to the layers that derive their hooks
    from it: worker faults and spawn failures apply to the sharded
    branch, journal faults to any journaled run. Every fault in
    the catalogue is recoverable, so the matrix under any chaos plan is
    bit-for-bit the chaos-free one. [hang_timeout_s] configures the
    sharded coordinator's liveness sweep ({!Exec.Shard.try_map}): a busy
    worker silent that long is killed and its cells requeued. The
    sharded branch runs on the calling
    domain's resident worker fleet, so concurrent campaigns driven from
    separate coordinator domains — the serve daemon's executor lanes —
    get disjoint worker processes without naming them.

    [on_cell] is a progress-and-streaming hook, called once per settled
    cell with the cell itself — replayed cells right after the journal
    replay, executed cells as their results arrive. It runs on whichever
    thread settles the cell (the coordinator for sharded runs, a pool
    domain otherwise), so it must be thread-safe and fast: an
    [Atomic.incr] feeding a progress gauge, or an
    [Analytics.Analyze.observe] feeding the streaming emergence miner
    (which serializes internally), are the intended shapes. [abort] is
    the campaign-service cancellation probe, threaded to the runner
    ({!Exec.Shard.try_map} or {!Exec.Pool.try_map}): once it answers
    [true], unstarted cells stop executing and the run raises
    {!Exec.Pool.Aborted} (regardless of [retries]) — completed cells are
    already journaled, so a resumed run continues exactly past the abort
    point. *)
let run ?domains ?shards ?(window = Runner.default_window) ?journal
    ?(resume = false) ?(retries = 0) ?on_cell ?abort ?chaos ?hang_timeout_s
    (g : grid) : t =
  let retries = max 0 retries in
  let defects = Vehicle.Defects.repaired in
  let pairs =
    List.concat_map
      (fun f -> List.map (fun s -> (f, s)) g.grid_scenarios)
      g.faults
  in
  let keyed =
    List.map
      (fun (fault, s) -> ((fault, s), cell_key ~seed:g.seed ~window ~defects fault s))
      pairs
  in
  let journaled =
    match journal with
    | Some path when resume ->
        Obs.span "campaign.replay" (fun () ->
            (* Streaming replay: the key→cell table is built record by
               record ([replace] keeps the last occurrence, as a full
               replay would), so resuming a huge journal never allocates
               the whole record list. A torn tail — a SIGKILL landed
               mid-append — is truncated off before the writer reopens
               the file below: appends after a tear would be unreachable
               on the next replay, which stops at the first invalid
               record. *)
            let tbl : (string, cell) Hashtbl.t = Hashtbl.create 64 in
            let (), stats =
              Journal.fold path ~init:() ~f:(fun () k (c : cell) ->
                  Hashtbl.replace tbl k c)
            in
            if stats.Journal.fold_dropped_bytes > 0 then ignore (Journal.repair path);
            tbl)
    | _ -> Hashtbl.create 0
  in
  let slots =
    List.map (fun (pair, k) -> (pair, k, Hashtbl.find_opt journaled k)) keyed
  in
  let todo = List.filter (fun (_, _, cached) -> cached = None) slots in
  let cell_done c = Option.iter (fun h -> h c) on_cell in
  List.iter
    (fun (_, _, cached) -> Option.iter cell_done cached)
    slots;
  let simulate (fault, s) =
    let baseline =
      Obs.span "cell.baseline" (fun () -> Runner.run ~defects ~window s)
    in
    let injected =
      Obs.span "cell.injected" (fun () ->
          Runner.run ~defects
            ~inject:(Inject.Plan.make ~seed:g.seed [ fault ])
            ~window s)
    in
    Obs.span "cell.classify" (fun () ->
        classify_cell ~window ~seed:g.seed fault ~baseline injected)
  in
  let journal_degraded = ref false in
  let reports =
    let run : (_, cell) Exec.Supervise.runner =
      match shards with
      | Some s ->
          (* Multi-process execution: workers only simulate — the journal
             and the cell counters stay with this coordinator process, fed
             from the settle hook as each cell's frame arrives, so
             crash-safe resume works unchanged (a worker SIGKILL costs at
             most the cells in flight). *)
          fun ~on_result f xs ->
            Exec.Shard.try_map ~shards:s ?domains ~on_result ?abort ?chaos
              ?hang_timeout_s f xs
      | None -> Exec.Supervise.in_process ?domains ?abort ()
    in
    let keys = Array.of_list (List.map (fun (_, k, _) -> k) todo) in
    (* One settle hook for both runners: journal, count and stream each
       cell the moment it exists — inside the task on a pool domain, or
       on the coordinator as its result frame arrives. *)
    let execute writer =
      Exec.Supervise.try_map ~attempts:(retries + 1)
        ~on_result:(fun i cell ->
          Option.iter (fun w -> Journal.append w ~key:keys.(i) cell) writer;
          Obs.Metrics.incr m_cells_executed;
          cell_done cell)
        run
        (fun (pair, _, _) -> simulate pair)
        todo
    in
    Obs.span "campaign.grid" (fun () ->
        match journal with
        | None -> execute None
        | Some path ->
            (* A campaign survives losing its journal device: results
               keep flowing in memory, the robustness summary carries the
               [degraded] flag, and only durability is lost. *)
            Journal.with_writer ~fresh:(not resume) ?chaos path
              (fun w ->
                let r = execute (Some w) in
                journal_degraded := Journal.degraded w;
                r))
  in
  Obs.Metrics.incr ~by:(List.length slots - List.length todo) m_cells_replayed;
  (* A cancelled campaign surfaces as [Exec.Pool.Aborted] no matter the
     retry count — the caller asked for it, so it must see it. The
     journal writer has already closed cleanly above: every completed
     cell is durable and a resumed run continues past the abort point. *)
  List.iter
    (fun (r : cell Exec.Supervise.report) ->
      match r.Exec.Supervise.status with
      | Exec.Supervise.Quarantined { Exec.Pool.exn = Exec.Pool.Aborted; _ } ->
          raise Exec.Pool.Aborted
      | _ -> ())
    reports;
  (* Without retries, preserve the historical contract: the first cell
     failure re-raises (with the worker's backtrace) instead of silently
     thinning the matrix. *)
  if retries = 0 then
    List.iter
      (fun (r : cell Exec.Supervise.report) ->
        match r.Exec.Supervise.status with
        | Exec.Supervise.Quarantined e ->
            Printexc.raise_with_backtrace e.Exec.Pool.exn e.Exec.Pool.backtrace
        | Exec.Supervise.Done _ -> ())
      reports;
  let sstats = Exec.Supervise.stats reports in
  let cells =
    let remaining = ref reports in
    List.filter_map
      (fun (_, _, cached) ->
        match cached with
        | Some cell -> Some cell
        | None -> (
            match !remaining with
            | [] -> assert false (* one report per todo slot, in order *)
            | r :: rest -> (
                remaining := rest;
                match r.Exec.Supervise.status with
                | Exec.Supervise.Done cell -> Some cell
                | Exec.Supervise.Quarantined _ -> None)))
      slots
  in
  let count p = List.length (List.filter p cells) in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  {
    seed = g.seed;
    window;
    scenarios = List.map (fun s -> s.Defs.number) g.grid_scenarios;
    cells;
    detected = count (fun c -> match c.detection with Detected _ -> true | _ -> false);
    missed = count (fun c -> c.detection = Missed);
    spurious = count (fun c -> c.detection = Spurious);
    no_effect = count (fun c -> c.detection = No_effect);
    hits = sum (fun c -> c.hits);
    false_negatives = sum (fun c -> c.false_negatives);
    false_positives = sum (fun c -> c.false_positives);
    inhibited = sum (fun c -> c.inhibited);
    robustness =
      {
        executed = List.length todo - sstats.Exec.Supervise.quarantined;
        replayed = List.length slots - List.length todo;
        retried = sstats.Exec.Supervise.retried;
        retries = sstats.Exec.Supervise.retries;
        quarantined = sstats.Exec.Supervise.quarantined;
        degraded = !journal_degraded;
      };
  }

(* ------------------------------------------------------------------ *)
(* The smoke grid: four fault specimens (three fault models) × three
   scenarios, small enough for CI yet exercising every detection class:

   - a stuck acceleration request trips the command-level subgoal monitor
     the moment the fault activates, long before the vehicle-level effect
     (detected, with lead time) — and where the request is never selected
     it alarms with no goal-level effect (spurious);
   - a blinded forward radar defeats the hierarchy wholesale: the features
     whose requests the subgoals watch are blinded by the very same fault
     (missed);
   - an actuation delay on the arbiter command perturbs only the plant —
     every command-level signal the subgoals watch stays legal (missed);
   - NaN dropout on the jerk accelerometer channel inhibits the goal-2
     monitor (it refuses to judge garbage) without touching the physics
     (no effect, inhibitions counted). *)

let smoke ?(seed = 42) () =
  let open Inject.Fault in
  {
    seed;
    faults =
      [
        make
          ~target:(Vehicle.Signals.accel_req "CA")
          (Stuck_at (Tl.Value.Float 3.0));
        make ~target:Vehicle.Signals.object_detected
          (Stuck_at (Tl.Value.Bool false));
        make ~target:Vehicle.Signals.accel_cmd (Delay 150);
        make ~from_t:2.0 ~until_t:8.0 ~target:Vehicle.Signals.host_jerk
          Dropout_missing;
      ];
    grid_scenarios = [ Defs.get 1; Defs.get 3; Defs.get 7 ];
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let cell_code c =
  match c.detection with
  | Detected lead -> Fmt.str "D+%.2f" lead
  | Missed -> "M"
  | Spurious -> "S"
  | No_effect -> "-"

(** The [cells:] line of a run, as both campaign commands print it and
    CI greps it. *)
let pp_robustness ppf r =
  Fmt.pf ppf "cells: executed=%d replayed=%d retried=%d retries=%d quarantined=%d%s"
    r.executed r.replayed r.retried r.retries r.quarantined
    (if r.degraded then " degraded=true" else "")

(** The detection-coverage matrix: one row per fault, one column per
    scenario; [D+lead] / [M]issed / [S]purious / [-] no effect, with
    per-cell inhibition counts in parentheses when monitors were degraded. *)
let pp ppf (t : t) =
  let fault_label c = Inject.Fault.to_string c.fault in
  let faults =
    List.fold_left
      (fun acc c -> if List.mem (fault_label c) acc then acc else acc @ [ fault_label c ])
      [] t.cells
  in
  let width =
    List.fold_left (fun acc f -> max acc (String.length f)) 24 faults
  in
  Fmt.pf ppf "@[<v>%-*s" width "fault \\ scenario";
  List.iter (fun n -> Fmt.pf ppf " %10s" (Fmt.str "#%d" n)) t.scenarios;
  List.iter
    (fun f ->
      Fmt.pf ppf "@,%-*s" width f;
      List.iter
        (fun n ->
          match
            List.find_opt
              (fun c -> fault_label c = f && c.scenario = n)
              t.cells
          with
          | Some c ->
              let code =
                if c.inhibited > 0 then
                  Fmt.str "%s(%d)" (cell_code c) c.inhibited
                else cell_code c
              in
              Fmt.pf ppf " %10s" code
          | None -> Fmt.pf ppf " %10s" "?")
        t.scenarios)
    faults;
  Fmt.pf ppf
    "@,detected=%d missed=%d spurious=%d no_effect=%d@,\
     hits=%d false negatives=%d false positives=%d inhibited=%d@,%a@]"
    t.detected t.missed t.spurious t.no_effect t.hits t.false_negatives
    t.false_positives t.inhibited pp_robustness t.robustness
