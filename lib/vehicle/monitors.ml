(** Hierarchical monitoring of the vehicle goals (Table 5.3): which goal or
    subgoal is monitored at which location, and the machinery to run every
    monitor over a scenario trace and classify hits / false positives /
    false negatives per parent goal (§5.1.2). *)

open Tl

type location = Vehicle | Arbiter | Feature of string

let location_to_string = function
  | Vehicle -> "Vehicle"
  | Arbiter -> "Arbiter"
  | Feature f -> f

type entry = {
  id : string;  (** e.g. "1", "1A", "2B.CA" *)
  parent : int;  (** goal number 1–9 *)
  location : location;
  goal : Kaos.Goal.t;
}

let vehicle_level =
  List.map
    (fun (n, g) -> { id = string_of_int n; parent = n; location = Vehicle; goal = g })
    Goals.all

let arbiter_level =
  List.map
    (fun (n, g) ->
      { id = Fmt.str "%dA" n; parent = n; location = Arbiter; goal = g })
    [
      (1, Subgoals.a1);
      (2, Subgoals.a2);
      (3, Subgoals.a3);
      (4, Subgoals.a4);
      (5, Subgoals.a5);
      (6, Subgoals.a6);
      (7, Subgoals.a7);
      (8, Subgoals.a8);
      (9, Subgoals.a9);
    ]

(* LCA shares acceleration requests with ACC (§5.3.2), so it carries no
   acceleration-request subgoals; steering-request subgoals belong to the
   steering features LCA and PA. *)
let accel_features = [ "CA"; "ACC"; "RCA"; "PA" ]
let steer_features = [ "LCA"; "PA" ]

let feature_level =
  let per fs n mk =
    List.map
      (fun f ->
        { id = Fmt.str "%dB.%s" n f; parent = n; location = Feature f; goal = mk f })
      fs
  in
  per accel_features 1 Subgoals.b1
  @ per accel_features 2 Subgoals.b2
  @ per accel_features 4 Subgoals.b4
  @ per accel_features 5 Subgoals.b5
  @ per accel_features 6 Subgoals.b6
  @ per steer_features 7 Subgoals.b7
  @ [ { id = "8B.RCA"; parent = 8; location = Feature "RCA"; goal = Subgoals.b8 } ]
  @ per [ "CA"; "ACC"; "LCA" ] 9 Subgoals.b9

(** The complete monitoring plan of Table 5.3. *)
let all = vehicle_level @ arbiter_level @ feature_level

type result = {
  entry : entry;
  violations : Rtmon.Violation.interval list;
  inhibited : Rtmon.Violation.interval list;
      (** intervals where the monitor's inputs were missing or NaN and it
          refused to judge (degraded sensors under fault injection) *)
}

(** The monitors of {!all} compiled into one fused program, once per
    process at module initialisation: a module-level value, not a [lazy],
    so domains that monitor their first trace at the same time cannot race
    to force it. *)
let plan =
  Rtmon.Incremental.plan ~dt:System.dt
    (List.map (fun e -> e.goal.Kaos.Goal.formal) all)

(** Run every monitor of the plan over a trace, in the order of {!all}.
    Under fault injection a monitored input can be missing or NaN; such
    states inhibit the monitor (three-valued verdict) rather than silently
    classifying over garbage. *)
let run (trace : Trace.t) : result list =
  let verdicts = Rtmon.Incremental.run plan trace in
  List.mapi
    (fun j entry ->
      let v = verdicts.(j) in
      {
        entry;
        violations = v.Rtmon.Incremental.violations;
        inhibited = v.Rtmon.Incremental.inhibited;
      })
    all

(** Per-parent-goal classification: compare the vehicle-level goal's
    violations with all its subgoals' (window: ±50 ms, the order of the
    arbitration debounce). *)
let classify ?(window = 0.05) (results : result list) (n : int) : Rtmon.Report.t =
  let find p = List.filter p results in
  let goal_res =
    List.find
      (fun r -> r.entry.parent = n && r.entry.location = Vehicle)
      results
  in
  let subs = find (fun r -> r.entry.parent = n && r.entry.location <> Vehicle) in
  Rtmon.Report.classify ~window
    ~inhibitions:
      (List.filter_map
         (fun r ->
           if r.inhibited = [] then None
           else
             Some
               ( r.entry.goal.Kaos.Goal.name,
                 location_to_string r.entry.location,
                 r.inhibited ))
         (goal_res :: subs))
    ~goal:(goal_res.entry.goal.Kaos.Goal.name, "Vehicle", goal_res.violations)
    ~subgoals:
      (List.map
         (fun r ->
           ( r.entry.goal.Kaos.Goal.name,
             location_to_string r.entry.location,
             r.violations ))
         subs)
    ()

(** Overall composability estimate across the nine goals (§3.4). *)
let estimate ?window results =
  Compose.Runtime.of_reports (List.map (classify ?window results) (List.init 9 (fun i -> i + 1)))
