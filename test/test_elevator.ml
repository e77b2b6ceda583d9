(** Tests for the Ch. 4 elevator: relationships, mechanized verification of
    the decomposition, and the simulated system. *)

open Tl

(* ------------------------------------------------------------------ *)
(* Relationships (Tables 4.1–4.2)                                       *)

let test_relationship_inventory () =
  Alcotest.(check int) "22 relationships" 22 (List.length Elevator.Relationships.all);
  Alcotest.(check int) "door branch" 9 (List.length Elevator.Relationships.door_branch);
  Alcotest.(check int) "drive branch" 10 (List.length Elevator.Relationships.drive_branch);
  (* delay-ordering notes (08/09, 20/21) are comment-only *)
  Alcotest.(check int) "18 checkable formulas" 18
    (List.length Elevator.Relationships.formulas)

let sat_on trace f = Array.for_all Fun.id (Rtmon.Incremental.run_trace f trace)

let mk_states l =
  Trace.make ~dt:1.0
    (List.map
       (fun (dc, db, es, drs, dmc, drc) ->
         State.of_list
           [
             ("dc", Value.Bool dc);
             ("db", Value.Bool db);
             ("es_stopped", Value.Bool es);
             ("drs_stopped", Value.Bool drs);
             ("dmc", Value.Sym dmc);
             ("drc", Value.Sym drc);
           ])
       l)

let test_relationship_r05 () =
  (* An unblocked door commanded CLOSE for maxcd (3 states) is closed. *)
  let r05 = Elevator.Relationships.r05.Icpa.Table.formal in
  let good =
    mk_states
      [
        (false, false, true, true, "CLOSE", "STOP");
        (false, false, true, true, "CLOSE", "STOP");
        (false, false, true, true, "CLOSE", "STOP");
        (true, false, true, true, "CLOSE", "STOP");
      ]
  in
  Alcotest.(check bool) "closing obeys r05" true (sat_on good r05);
  let bad =
    mk_states
      [
        (false, false, true, true, "CLOSE", "STOP");
        (false, false, true, true, "CLOSE", "STOP");
        (false, false, true, true, "CLOSE", "STOP");
        (false, false, true, true, "CLOSE", "STOP") (* still open after maxcd *);
      ]
  in
  Alcotest.(check bool) "stuck door violates r05" false (sat_on bad r05)

let test_relationship_r10_r11 () =
  let r10 = Elevator.Relationships.r10.Icpa.Table.formal in
  let r11 = Elevator.Relationships.r11.Icpa.Table.formal in
  let blocked_then_reversed =
    mk_states
      [ (false, true, true, true, "CLOSE", "STOP"); (false, true, true, true, "OPEN", "STOP") ]
  in
  Alcotest.(check bool) "reversal after block" true (sat_on blocked_then_reversed r10);
  Alcotest.(check bool) "blocked door not closed" true (sat_on blocked_then_reversed r11);
  let no_reversal =
    mk_states
      [ (false, true, true, true, "CLOSE", "STOP"); (false, true, true, true, "CLOSE", "STOP") ]
  in
  Alcotest.(check bool) "missing reversal violates r10" false (sat_on no_reversal r10)

(* ------------------------------------------------------------------ *)
(* Mechanized verification (§4.4.3)                                     *)

let test_composition_valid () =
  match Elevator.Verification.check () with
  | Mc.Checker.Valid _ -> ()
  | o -> Alcotest.failf "expected valid: %a" Mc.Checker.pp_outcome o

let test_composition_without_r22 () =
  (* r22 only makes an implicit domain constraint explicit: the claim is
     insensitive to it (relationships 02/04 and 11 are jointly unsatisfiable
     for a blocked closed door). *)
  match Elevator.Verification.check_without_closed_door_assumption () with
  | Mc.Checker.Valid _ -> ()
  | o -> Alcotest.failf "expected valid: %a" Mc.Checker.pp_outcome o

let test_naive_counterexample () =
  (* Figs. 4.12–4.13 alone do not compose the parent: both controllers can
     actuate simultaneously from the safe state (§4.5.1). *)
  match Elevator.Verification.check_naive () with
  | Mc.Checker.Counterexample { path } ->
      let last = List.nth path (List.length path - 1) in
      Alcotest.(check bool) "final state violates the parent goal" false
        (State.bool last "dc" || State.bool last "es_stopped")
  | o -> Alcotest.failf "expected counterexample: %a" Mc.Checker.pp_outcome o

let test_table_verify_hook () =
  (* Icpa.Table.verify discharges the same obligation from the table. *)
  match
    Icpa.Table.verify Elevator.Icpa_tables.door_closed_or_stopped
      Elevator.Verification.kripke
  with
  | Mc.Checker.Valid _ -> ()
  | o -> Alcotest.failf "table verify failed: %a" Mc.Checker.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Checker ≡ run-time monitor: the model checker's verdicts replayed    *)
(* through the fused plan that monitors simulated traces.               *)

(* Premise and goal verdicts of one composition over a trace, from one
   plan. *)
let plan_verdicts (c : Elevator.Verification.composition) trace =
  let premise = c.assumptions @ c.subgoals in
  let plan = Rtmon.Incremental.plan ~dt:1.0 (premise @ [ c.goal ]) in
  let vs = Array.to_list (Rtmon.Incremental.run plan trace) in
  let n = List.length premise in
  (List.filteri (fun i _ -> i < n) vs, List.nth vs n)

let first_fail (v : Rtmon.Incremental.verdict) =
  match v.Rtmon.Incremental.violations with
  | [] -> None
  | iv :: _ -> Some iv.Rtmon.Violation.start_index

let test_counterexamples_replay () =
  let replayed = ref 0 in
  List.iter
    (fun c ->
      match Elevator.Verification.check_composition c with
      | Mc.Checker.Counterexample { path } ->
          incr replayed;
          let trace = Trace.make ~dt:1.0 path in
          let premise, goal = plan_verdicts c trace in
          List.iter
            (fun (v : Rtmon.Incremental.verdict) ->
              Alcotest.(check bool) "premise passes at every state" true
                (v.Rtmon.Incremental.violations = []
                && v.Rtmon.Incremental.inhibited = []))
            premise;
          Alcotest.(check (option int)) "goal first fails at the final state"
            (Some (Trace.length trace - 1))
            (first_fail goal)
      | Mc.Checker.Valid _ -> ()
      | o -> Alcotest.failf "unexpected outcome: %a" Mc.Checker.pp_outcome o)
    Elevator.Verification.compositions;
  Alcotest.(check bool) "a counterexample was replayed" true (!replayed > 0)

(* A seeded walk of [steps] states through the Kripke structure. It
   prefers successors that keep every premise holding, checked with
   stepped one-formula monitors, so the goal is judged under the premise
   for long stretches; when no successor keeps it, it takes any. *)
let guided_walk rng (c : Elevator.Verification.composition) steps =
  let k = Elevator.Verification.kripke in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let step mons s =
    let outs = List.map (fun m -> Rtmon.Incremental.step m s) mons in
    (List.for_all fst outs, List.map snd outs)
  in
  let rec go i mons candidates acc =
    if i = steps then List.rev acc
    else
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun s -> (Random.State.bits rng, s)) candidates))
      in
      let keeps = List.find_map (fun s ->
          let ok, mons' = step mons s in
          if ok then Some (s, mons') else None) shuffled
      in
      let s, mons' =
        match keeps with
        | Some next -> next
        | None ->
            let s = pick candidates in
            (s, snd (step mons s))
      in
      go (i + 1) mons' (k.Mc.Kripke.next s) (s :: acc)
  in
  let mons =
    List.map (Rtmon.Incremental.create ~dt:1.0) (c.assumptions @ c.subgoals)
  in
  go 0 mons k.Mc.Kripke.init []

let test_valid_random_walks () =
  let rng = Random.State.make [| 2009 |] in
  let steps = 200 and walks = 4 in
  List.iter
    (fun c ->
      match Elevator.Verification.check_composition c with
      | Mc.Checker.Valid _ ->
          for _ = 1 to walks do
            let trace = Trace.make ~dt:1.0 (guided_walk rng c steps) in
            let premise, goal = plan_verdicts c trace in
            let held_until =
              List.fold_left
                (fun acc v -> match first_fail v with Some i -> min acc i | None -> acc)
                steps premise
            in
            Alcotest.(check bool) "the premise holds for a while" true (held_until > 20);
            match first_fail goal with
            | Some i when i < held_until ->
                Alcotest.failf "goal fails at state %d under the premise" i
            | _ -> ()
          done
      | _ -> ())
    Elevator.Verification.compositions

(* ------------------------------------------------------------------ *)
(* Simulation                                                           *)

let violations_of trace goal_name =
  List.assoc goal_name (Elevator.Simulation.monitor_goals trace)

let test_default_run_safe () =
  let trace = Elevator.Simulation.run () in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " holds") 0 (List.length (violations_of trace name)))
    [
      "Maintain[DoorClosedOrElevatorStopped]";
      "Achieve[CloseDoorWhenElevatorMovingOrMoved]";
      "Achieve[StopElevatorWhenDoorOpenOrOpened]";
      "Achieve[DoorReversalWhenBlocked]";
      "Maintain[ElevatorBelowHoistwayUpperLimit]";
      "Maintain[DriveStoppedWhenOverweight]";
    ]

let test_default_run_travels () =
  let trace = Elevator.Simulation.run () in
  let maxpos =
    Trace.fold (fun acc s -> Float.max acc (State.float s "elevator_position")) 0. trace
  in
  Alcotest.(check bool) "reached floor 3" true (maxpos > 7.9);
  let last = Trace.get trace (Trace.length trace - 1) in
  Alcotest.(check bool) "returned to floor 1" true
    (Float.abs (State.float last "elevator_position") < 0.05)

let test_door_blocking_reversal () =
  let trace = Elevator.Simulation.run () in
  (* the passenger blocks the door at t=20..21.5; db must be observed and
     the reversal goal must hold (checked above); also the door must have
     reopened while blocked *)
  let saw_block =
    Trace.fold (fun acc s -> acc || State.bool s "db") false trace
  in
  Alcotest.(check bool) "block observed" true saw_block

let test_overweight_actuation_delay () =
  (* Loading the cab beyond the limit while moving violates the
     instantaneous Fig. 4.6 goal: the drive cannot stop in one state —
     the actuation-delay restriction lesson (§4.5.2). *)
  let config =
    {
      Elevator.Simulation.passenger_events =
        Elevator.Simulation.press_button 1.0 (Elevator.Buttons.car_press 3)
        @ [ Sim.Stimulus.set 4.0 "passenger_load" (Value.Float 650.) ];
      duration = 20.0;
    }
  in
  let trace = Elevator.Simulation.run ~config () in
  let ivs = violations_of trace "Maintain[DriveStoppedWhenOverweight]" in
  Alcotest.(check bool) "instantaneous goal violated" true (List.length ivs >= 1);
  (* ... but the violation is exactly one stopping transient, not permanent *)
  Alcotest.(check bool) "bounded by the stopping delay" true
    (Rtmon.Violation.total_duration ivs < 3.0)

let test_hoistway_never_exceeded () =
  (* Drive the cab at the hoistway: call floor 3 repeatedly with the limit
     just above; the primary stop + margin keeps etp under the limit. *)
  let trace = Elevator.Simulation.run () in
  let over =
    Trace.fold
      (fun acc s ->
        acc || State.float s "etp" > Elevator.Icpa_tables.hoistway_upper_limit)
      false trace
  in
  Alcotest.(check bool) "hoistway limit held" false over

let test_multi_call_service () =
  (* Press car button 3 and hall button 2-down: the dispatch serves both in
     nearest-first order and the button controllers clear the calls. *)
  let config =
    {
      Elevator.Simulation.passenger_events =
        Elevator.Simulation.press_button 1.0 (Elevator.Buttons.car_press 3)
        @ Elevator.Simulation.press_button 1.5
            (Elevator.Buttons.hall_press 2 Elevator.Buttons.Down);
      duration = 40.0;
    }
  in
  let trace = Elevator.Simulation.run ~config () in
  let visited f =
    Trace.fold
      (fun acc s ->
        acc
        || Float.abs (State.float s "elevator_position" -. (float_of_int (f - 1) *. 4.0))
             < 0.05
           && State.float s "door_position" < 0.5)
      false trace
  in
  Alcotest.(check bool) "served floor 3" true (visited 3);
  Alcotest.(check bool) "served floor 2" true (visited 2);
  let last = Trace.get trace (Trace.length trace - 1) in
  Alcotest.(check bool) "calls cleared" false
    (State.bool last (Elevator.Buttons.car_call 3)
    || State.bool last (Elevator.Buttons.hall_call 2 Elevator.Buttons.Down));
  (* the running-example goal holds throughout the multi-call service *)
  Alcotest.(check int) "safety goal holds" 0
    (List.length
       (List.assoc "Maintain[DoorClosedOrElevatorStopped]"
          (Elevator.Simulation.monitor_goals trace)))

let () =
  Alcotest.run "elevator"
    [
      ( "relationships",
        [
          Alcotest.test_case "inventory" `Quick test_relationship_inventory;
          Alcotest.test_case "r05 close delay" `Quick test_relationship_r05;
          Alcotest.test_case "r10/r11 door reversal" `Quick test_relationship_r10_r11;
        ] );
      ( "verification",
        [
          Alcotest.test_case "composition valid" `Quick test_composition_valid;
          Alcotest.test_case "insensitive to r22" `Quick test_composition_without_r22;
          Alcotest.test_case "naive counterexample" `Quick test_naive_counterexample;
          Alcotest.test_case "table verify hook" `Quick test_table_verify_hook;
          Alcotest.test_case "counterexamples replay through the plan" `Quick
            test_counterexamples_replay;
          Alcotest.test_case "valid compositions hold on random walks" `Quick
            test_valid_random_walks;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "goals hold on the default run" `Slow test_default_run_safe;
          Alcotest.test_case "cab travels and returns" `Slow test_default_run_travels;
          Alcotest.test_case "door blocking" `Slow test_door_blocking_reversal;
          Alcotest.test_case "overweight actuation delay" `Slow test_overweight_actuation_delay;
          Alcotest.test_case "hoistway margin" `Slow test_hoistway_never_exceeded;
          Alcotest.test_case "multi-call dispatch" `Slow test_multi_call_service;
        ] );
    ]
