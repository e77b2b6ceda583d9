(** Unit tests for the vehicle substrate: goal formulas, the monitoring
    plan, feature behaviours, arbitration timing, and plant dynamics —
    mostly via small purpose-built worlds. *)

open Tl
open Vehicle.Signals

let dt = Vehicle.System.dt

(* ------------------------------------------------------------------ *)
(* Goals and monitoring plan                                            *)

let test_goal_inventory () =
  Alcotest.(check int) "nine goals" 9 (List.length Vehicle.Goals.all);
  List.iter
    (fun (_, (g : Kaos.Goal.t)) ->
      Alcotest.(check bool)
        (g.Kaos.Goal.name ^ " monitorable")
        true
        (Formula.invariant_body g.Kaos.Goal.formal <> None))
    Vehicle.Goals.all

let test_monitoring_plan () =
  let count loc =
    List.length
      (List.filter (fun (e : Vehicle.Monitors.entry) -> e.Vehicle.Monitors.location = loc)
         Vehicle.Monitors.all)
  in
  Alcotest.(check int) "nine vehicle-level monitors" 9 (count Vehicle.Monitors.Vehicle);
  Alcotest.(check int) "nine arbiter monitors" 9 (count Vehicle.Monitors.Arbiter);
  (* feature monitors: 5 goal families x 4 accel features + 2 steer + 1 RCA
     + 3 backward = 26 *)
  let feature_count =
    List.length
      (List.filter
         (fun (e : Vehicle.Monitors.entry) ->
           match e.Vehicle.Monitors.location with
           | Vehicle.Monitors.Feature _ -> true
           | _ -> false)
         Vehicle.Monitors.all)
  in
  Alcotest.(check int) "feature monitors" 26 feature_count;
  (* LCA carries no acceleration-request subgoals (§5.3.2) *)
  Alcotest.(check bool) "no LCA accel subgoal" false
    (List.exists
       (fun (e : Vehicle.Monitors.entry) ->
         e.Vehicle.Monitors.id = "1B.LCA" || e.Vehicle.Monitors.id = "2B.LCA")
       Vehicle.Monitors.all)

let test_goal1_formula () =
  (* G1 fires only for subsystem-attributed acceleration above 2. *)
  let mk ~src ~accel =
    State.of_list [ (va_source, Value.Sym src); (host_accel, Value.Float accel) ]
  in
  let tr = Trace.make ~dt [ mk ~src:"CA" ~accel:2.5 ] in
  Alcotest.(check bool) "CA at 2.5 violates" false
    (Eval.holds tr Vehicle.Goals.g1.Kaos.Goal.formal);
  let tr = Trace.make ~dt [ mk ~src:"Driver" ~accel:2.5 ] in
  Alcotest.(check bool) "driver at 2.5 allowed" true
    (Eval.holds tr Vehicle.Goals.g1.Kaos.Goal.formal);
  let tr = Trace.make ~dt [ mk ~src:"CA" ~accel:(-9.) ] in
  Alcotest.(check bool) "hard deceleration allowed (one-sided)" true
    (Eval.holds tr Vehicle.Goals.g1.Kaos.Goal.formal)

(* ------------------------------------------------------------------ *)
(* Mini-world helper: drive selected components with scripted inputs.   *)

let mini_world ~events ~extra components =
  Sim.World.make ~check_conflicts:false ~dt
    (Vehicle.System.driver events :: components @ [ Sim.Component.constant ~name:"env" extra ])

let plant_defaults =
  [
    (host_speed, Value.Float 0.);
    (host_accel, Value.Float 0.);
    (object_detected, Value.Bool false);
    (object_range, Value.Float 1000.);
    (object_closing_speed, Value.Float 0.);
    (rear_object_detected, Value.Bool false);
    (rear_range, Value.Float 1000.);
    (lead_speed, Value.Float 0.);
    (accel_source, Value.Sym "Driver");
  ]

(* ------------------------------------------------------------------ *)
(* Features                                                             *)

let test_pa_ghost_profile () =
  (* Fig. 5.3: +2 until 2.186 s, 0 until 9.33, −2 until 9.624, then 0 —
     while never enabled nor requesting. *)
  let w =
    mini_world ~events:[] ~extra:plant_defaults
      [ Vehicle.Feature_pa.component Vehicle.Defects.as_evaluated ]
  in
  let tr = Sim.World.run ~until:10.0 w in
  let at t = State.float (Trace.get tr (int_of_float (t /. dt))) (accel_req "PA") in
  Alcotest.(check (float 1e-9)) "+2 at 1 s" 2.0 (at 1.0);
  Alcotest.(check (float 1e-9)) "0 at 5 s" 0.0 (at 5.0);
  Alcotest.(check (float 1e-9)) "-2 at 9.5 s" (-2.0) (at 9.5);
  Alcotest.(check (float 1e-9)) "0 at 9.8 s" 0.0 (at 9.8);
  Alcotest.(check bool) "never requesting" true
    (Trace.fold (fun acc s -> acc && not (State.bool s (req_accel "PA"))) true tr)

let test_pa_ghost_repaired () =
  let w =
    mini_world ~events:[] ~extra:plant_defaults
      [ Vehicle.Feature_pa.component Vehicle.Defects.repaired ]
  in
  let tr = Sim.World.run ~until:3.0 w in
  Alcotest.(check bool) "no ghost requests" true
    (Trace.fold (fun acc s -> acc && State.float s (accel_req "PA") = 0.) true tr)

let test_ca_engages_and_brakes () =
  let extra =
    List.map
      (fun (k, v) ->
        match k with
        | _ when k = object_range -> (k, Value.Float 5.0)
        | _ when k = object_detected -> (k, Value.Bool true)
        | _ when k = object_closing_speed -> (k, Value.Float 3.0)
        | _ when k = host_speed -> (k, Value.Float 3.0)
        | _ -> (k, v))
      plant_defaults
  in
  let w =
    mini_world
      ~events:[ Sim.Stimulus.press 0. (enabled "CA") ]
      ~extra
      [ Vehicle.Feature_ca.component Vehicle.Defects.as_evaluated ]
  in
  let tr = Sim.World.run ~until:0.1 w in
  let last = Trace.get tr (Trace.length tr - 1) in
  (* ttc = 5/3 < 2.2: CA must engage and request a hard brake *)
  Alcotest.(check bool) "engaged" true (State.bool last (active "CA"));
  Alcotest.(check bool) "hard brake" true (State.float last (accel_req "CA") < -8.)

let test_ca_requires_forward_gear () =
  let extra =
    List.map
      (fun (k, v) ->
        if k = object_range then (k, Value.Float 5.0)
        else if k = object_detected then (k, Value.Bool true)
        else if k = object_closing_speed then (k, Value.Float 3.0)
        else (k, v))
      plant_defaults
  in
  let w =
    mini_world
      ~events:
        [ Sim.Stimulus.press 0. (enabled "CA"); Sim.Stimulus.set 0. gear (Value.Sym "R") ]
      ~extra
      [ Vehicle.Feature_ca.component Vehicle.Defects.as_evaluated ]
  in
  let tr = Sim.World.run ~until:0.1 w in
  Alcotest.(check bool) "CA inert in reverse" true
    (Trace.fold (fun acc s -> acc && not (State.bool s (active "CA"))) true tr)

let test_acc_jerk_limited_request () =
  (* Fig. 5.7: ACC requests are rate-limited to 2 m/s³ and capped at 1.8. *)
  let extra =
    List.map
      (fun (k, v) -> if k = host_speed then (k, Value.Float 1.0) else (k, v))
      plant_defaults
  in
  let w =
    mini_world
      ~events:
        [ Sim.Stimulus.press 0. (enabled "ACC"); Sim.Stimulus.press 0.5 (engage_request "ACC") ]
      ~extra
      [ Vehicle.Feature_acc.component Vehicle.Defects.as_evaluated ]
  in
  let tr = Sim.World.run ~until:4.0 w in
  let series = List.map snd (Trace.signal tr (accel_req "ACC")) in
  let max_req = List.fold_left Float.max neg_infinity series in
  Alcotest.(check bool) "capped at 1.8" true (max_req <= 1.8 +. 1e-9);
  let max_jerk =
    let rec go prev acc = function
      | [] -> acc
      | x :: rest -> go x (Float.max acc (Float.abs (x -. prev) /. dt)) rest
    in
    go (List.hd series) 0. (List.tl series)
  in
  Alcotest.(check bool) "jerk-limited at 2" true (max_jerk <= 2.0 +. 1e-6)

let test_acc_disengaged_leak_defect () =
  (* Fig. 5.6: merely enabled, ACC controls toward set speed 0. *)
  let extra =
    List.map
      (fun (k, v) -> if k = host_speed then (k, Value.Float 3.0) else (k, v))
      plant_defaults
  in
  let run defects =
    let w =
      mini_world
        ~events:[ Sim.Stimulus.press 0. (enabled "ACC") ]
        ~extra
        [ Vehicle.Feature_acc.component defects ]
    in
    let tr = Sim.World.run ~until:3.0 w in
    State.float (Trace.get tr (Trace.length tr - 1)) (accel_req "ACC")
  in
  Alcotest.(check bool) "defect: negative leak request" true
    (run Vehicle.Defects.as_evaluated < -0.5);
  Alcotest.(check (float 1e-9)) "repaired: no request" 0.
    (run Vehicle.Defects.repaired)

let test_rca_gear_defect () =
  let extra =
    List.map
      (fun (k, v) ->
        if k = rear_object_detected then (k, Value.Bool true)
        else if k = rear_range then (k, Value.Float 3.0)
        else if k = host_speed then (k, Value.Float (-2.0))
        else (k, v))
      plant_defaults
  in
  let run defects =
    let w =
      mini_world
        ~events:
          [ Sim.Stimulus.press 0. (enabled "RCA"); Sim.Stimulus.set 0. gear (Value.Sym "R") ]
        ~extra
        [ Vehicle.Feature_rca.component defects ]
    in
    let tr = Sim.World.run ~until:0.1 w in
    State.bool (Trace.get tr (Trace.length tr - 1)) (active "RCA")
  in
  Alcotest.(check bool) "defect: never engages" false (run Vehicle.Defects.as_evaluated);
  Alcotest.(check bool) "repaired: engages" true (run Vehicle.Defects.repaired)

(* ------------------------------------------------------------------ *)
(* Arbiter                                                              *)

let arbiter_world ?(defects = Vehicle.Defects.as_evaluated) ~events ~extra () =
  mini_world ~events ~extra [ Vehicle.Arbiter.component defects ]

let feature_inputs f ~active:a ~req ~value =
  [
    (active f, Value.Bool a);
    (req_accel f, Value.Bool req);
    (accel_req f, Value.Float value);
    (steer_req f, Value.Float 0.);
    (req_steer f, Value.Bool false);
  ]

let all_features_inert =
  List.concat_map
    (fun f -> feature_inputs f ~active:false ~req:false ~value:0.)
    features

let test_selection_debounce () =
  (* A requesting feature is selected 50 ms after becoming active. *)
  let extra =
    plant_defaults
    @ all_features_inert
  in
  let w =
    arbiter_world
      ~events:
        [
          Sim.Stimulus.press 1.0 (active "ACC");
          Sim.Stimulus.press 1.0 (req_accel "ACC");
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:1.2 w in
  let src_at t = State.sym (Trace.get tr (int_of_float (t /. dt))) accel_source in
  Alcotest.(check string) "driver before" "Driver" (src_at 1.02);
  Alcotest.(check string) "ACC after debounce" "ACC" (src_at 1.06);
  (* the switch happens within [1.05, 1.055] *)
  Alcotest.(check string) "not earlier" "Driver" (src_at 1.049)

let test_priority_order () =
  (* CA preempts ACC. *)
  let extra = plant_defaults @ all_features_inert in
  let w =
    arbiter_world
      ~events:
        [
          Sim.Stimulus.press 0.5 (active "ACC");
          Sim.Stimulus.press 0.5 (req_accel "ACC");
          Sim.Stimulus.press 1.0 (active "CA");
          Sim.Stimulus.press 1.0 (req_accel "CA");
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:1.5 w in
  let src_at t = State.sym (Trace.get tr (int_of_float (t /. dt))) accel_source in
  Alcotest.(check string) "ACC first" "ACC" (src_at 0.9);
  Alcotest.(check string) "CA preempts" "CA" (src_at 1.2)

let test_pedal_override_and_reselect () =
  (* §5.4.4/§5.4.5: a non-emergency feature is overridden ~50 ms after the
     pedals are applied, and regains control 0.101 s after release. *)
  let extra =
    plant_defaults @ all_features_inert
    |> List.map (fun (k, v) -> if k = host_speed then (k, Value.Float 3.0) else (k, v))
  in
  let w =
    arbiter_world
      ~events:
        [
          Sim.Stimulus.press 0.2 (active "ACC");
          Sim.Stimulus.press 0.2 (req_accel "ACC");
          Sim.Stimulus.set 0.2 (accel_req "ACC") (Value.Float 1.0);
          Sim.Stimulus.set 1.0 throttle_pedal (Value.Float 0.3);
          Sim.Stimulus.set 2.0 throttle_pedal (Value.Float 0.0);
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:2.5 w in
  let src_at t = State.sym (Trace.get tr (int_of_float (t /. dt))) accel_source in
  Alcotest.(check string) "selected before pedals" "ACC" (src_at 0.9);
  Alcotest.(check string) "overridden ~50ms after pedals" "Driver" (src_at 1.06);
  Alcotest.(check string) "blocked while pedals held" "Driver" (src_at 1.9);
  Alcotest.(check string) "not yet at +0.09" "Driver" (src_at 2.09);
  Alcotest.(check string) "regained at +0.101" "ACC" (src_at 2.12)

let test_hard_brake_not_overridden () =
  (* An emergency stop request (< −2 m/s²) may not be overridden (§5.2.3). *)
  let extra =
    plant_defaults @ all_features_inert
    |> List.map (fun (k, v) -> if k = host_speed then (k, Value.Float 3.0) else (k, v))
  in
  let w =
    arbiter_world
      ~events:
        [
          Sim.Stimulus.press 0.2 (active "CA");
          Sim.Stimulus.press 0.2 (req_accel "CA");
          Sim.Stimulus.set 0.2 (accel_req "CA") (Value.Float (-9.0));
          Sim.Stimulus.set 1.0 throttle_pedal (Value.Float 0.5);
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:2.0 w in
  let src_at t = State.sym (Trace.get tr (int_of_float (t /. dt))) accel_source in
  Alcotest.(check string) "CA keeps control under throttle" "CA" (src_at 1.9)

let test_selected_latch_defect () =
  (* After the feature withdraws, the flag-derived attribution holds for the
     latch window while the command source is already the driver. *)
  let extra = plant_defaults @ all_features_inert in
  let w =
    arbiter_world
      ~events:
        [
          Sim.Stimulus.press 0.2 (active "CA");
          Sim.Stimulus.press 0.2 (req_accel "CA");
          Sim.Stimulus.release 1.0 (req_accel "CA");
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:1.5 w in
  let at t v = State.sym (Trace.get tr (int_of_float (t /. dt))) v in
  Alcotest.(check string) "command source reverts" "Driver" (at 1.05 accel_source);
  Alcotest.(check string) "attribution latched" "CA" (at 1.05 va_source);
  Alcotest.(check string) "latch expires" "Driver" (at 1.4 va_source)

let test_latch_repaired () =
  let extra = plant_defaults @ all_features_inert in
  let w =
    arbiter_world ~defects:Vehicle.Defects.repaired
      ~events:
        [
          Sim.Stimulus.press 0.2 (active "CA");
          Sim.Stimulus.press 0.2 (req_accel "CA");
          Sim.Stimulus.release 1.0 (req_accel "CA");
        ]
      ~extra ()
  in
  let tr = Sim.World.run ~until:1.3 w in
  let at t v = State.sym (Trace.get tr (int_of_float (t /. dt))) v in
  Alcotest.(check string) "attribution follows immediately" "Driver" (at 1.05 va_source)

(* ------------------------------------------------------------------ *)
(* Plant                                                                *)

let test_plant_tracks_command () =
  let w =
    mini_world ~events:[]
      ~extra:
        [
          (accel_cmd, Value.Float 1.0);
          (accel_source, Value.Sym "Driver");
          (lead_pos, Value.Float 1000.);
          (lead_speed, Value.Float 0.);
          (rear_pos, Value.Float (-1000.));
        ]
      [ Vehicle.Plant.host Vehicle.Defects.repaired ]
  in
  let tr = Sim.World.run ~until:1.0 w in
  let last = Trace.get tr (Trace.length tr - 1) in
  Alcotest.(check bool) "acceleration settles near command" true
    (Float.abs (State.float last host_accel -. 1.0) < 0.05);
  Alcotest.(check bool) "speed integrates" true (State.float last host_speed > 0.5)

let test_plant_rebound_overshoot () =
  (* Cutting a hard brake rebounds above +2 m/s² — the §5.4.1 mechanism. *)
  let w =
    mini_world
      ~events:
        [
          Sim.Stimulus.set 0. accel_cmd (Value.Float (-9.));
          Sim.Stimulus.set 1.0 accel_cmd (Value.Float 0.);
        ]
      ~extra:
        [
          (accel_cmd, Value.Float (-9.));
          (accel_source, Value.Sym "CA");
          (lead_pos, Value.Float 1000.);
          (lead_speed, Value.Float 0.);
          (rear_pos, Value.Float (-1000.));
          (host_speed, Value.Float 10.0);
        ]
      [ Vehicle.Plant.host Vehicle.Defects.repaired ]
  in
  (* host_speed is plant-owned; seed it via a first event instead *)
  let tr = Sim.World.run ~until:2.0 w in
  let maxa =
    Trace.fold (fun acc s -> Float.max acc (State.float s host_accel)) neg_infinity tr
  in
  Alcotest.(check bool) "rebound exceeds +2" true (maxa > 2.0)

let test_collision_detection () =
  let w =
    mini_world
      ~events:[ Sim.Stimulus.set 0. accel_cmd (Value.Float 2.0) ]
      ~extra:
        [
          (accel_cmd, Value.Float 2.0);
          (accel_source, Value.Sym "Driver");
          (lead_pos, Value.Float 3.0);
          (lead_speed, Value.Float 0.);
          (rear_pos, Value.Float (-1000.));
        ]
      [ Vehicle.Plant.host Vehicle.Defects.repaired ]
  in
  let tr =
    Sim.World.run ~stop:collision ~until:10. w
  in
  Alcotest.(check bool) "collision detected" true
    (State.bool (Trace.get tr (Trace.length tr - 1)) collision);
  Alcotest.(check bool) "terminated early" true
    (Trace.time tr (Trace.length tr - 1) < 9.9)

(* ------------------------------------------------------------------ *)
(* Arbiter invariants over random event scripts                         *)

let gen_script =
  let open QCheck.Gen in
  let feature = oneofl [ "CA"; "ACC"; "PA"; "RCA" ] in
  let event =
    oneof
      [
        map2 (fun t f -> Sim.Stimulus.press t (active f))
          (float_bound_inclusive 2.5) feature;
        map2 (fun t f -> Sim.Stimulus.release t (active f))
          (float_bound_inclusive 2.5) feature;
        map2 (fun t f -> Sim.Stimulus.press t (req_accel f))
          (float_bound_inclusive 2.5) feature;
        map2 (fun t f -> Sim.Stimulus.release t (req_accel f))
          (float_bound_inclusive 2.5) feature;
        map3
          (fun t f x -> Sim.Stimulus.set t (accel_req f) (Value.Float ((x *. 11.) -. 9.)))
          (float_bound_inclusive 2.5) feature (float_bound_inclusive 1.);
        map2 (fun t x -> Sim.Stimulus.set t throttle_pedal (Value.Float x))
          (float_bound_inclusive 2.5) (float_bound_inclusive 0.6);
        map (fun t -> Sim.Stimulus.set t throttle_pedal (Value.Float 0.))
          (float_bound_inclusive 2.5);
      ]
  in
  list_size (int_range 0 14) event

let run_script events =
  let extra =
    plant_defaults @ all_features_inert
    |> List.map (fun (k, v) -> if k = host_speed then (k, Value.Float 3.0) else (k, v))
  in
  let w = arbiter_world ~events ~extra () in
  Sim.World.run ~until:3.0 w

let prop_source_is_valid =
  QCheck.Test.make ~name:"accel source is a feature or the driver" ~count:40
    (QCheck.make gen_script) (fun events ->
      let tr = run_script events in
      Trace.fold
        (fun acc s ->
          acc && List.mem (State.sym s accel_source) ("Driver" :: Vehicle.Signals.features))
        true tr)

let prop_selection_requires_requesting =
  QCheck.Test.make ~name:"a selected feature was active and requesting" ~count:40
    (QCheck.make gen_script) (fun events ->
      let tr = run_script events in
      let ok = ref true in
      Trace.iteri
        (fun i s ->
          if i > 0 then
            let src = State.sym s accel_source in
            if src <> "Driver" then begin
              let prev = Trace.get tr (i - 1) in
              if not (State.bool prev (active src) && State.bool prev (req_accel src)) then
                ok := false
            end)
        tr;
      !ok)

let prop_override_latency_bounded =
  (* While the throttle is held, a feature whose request stays softer than a
     hard stop never remains the source longer than the override debounce
     plus two states. *)
  QCheck.Test.make ~name:"override latency bounded" ~count:40
    (QCheck.make gen_script) (fun events ->
      let tr = run_script events in
      let ok = ref true in
      let run = ref 0 in
      Trace.iteri
        (fun _ s ->
          let src = State.sym s accel_source in
          let pedals = State.float s throttle_pedal > 0.05 in
          let soft = src <> "Driver" && State.float s (accel_req src) >= hard_brake in
          if pedals && soft then begin
            incr run;
            if float_of_int !run *. dt > 0.05 +. (3. *. dt) then ok := false
          end
          else run := 0)
        tr;
      !ok)

(* The 44 monitors hash-cons into one program: 727 body nodes are 277
   distinct subformulas, of which 7 are temporal. *)
let test_fused_plan_size () =
  Alcotest.(check int) "one op per distinct subformula" 277
    (Rtmon.Incremental.op_count Vehicle.Monitors.plan);
  Alcotest.(check int) "one slot per distinct temporal subformula" 7
    (Rtmon.Incremental.slot_count Vehicle.Monitors.plan)

(* Column-at-a-time monitoring runs from per-domain pooled bitsets. After
   one warm-up run on this domain, runs alternating between a full 20-s
   repaired trace (20,001 states) and one that stops early (19,362
   states: seed 3's host-acceleration spike on scenario 9) allocate no
   bitset: any pooled buffer at least as long as the trace serves. Their
   minor words are at most a quarter of the state-at-a-time runner's on
   the same traces (608,464 and 551,129 words per run). *)
let test_monitor_allocation () =
  let s = Scenarios.Defs.get 1 in
  let full =
    Vehicle.System.run ~defects:Vehicle.Defects.repaired ~duration:s.duration
      ~objects:s.objects ~events:s.events ()
  in
  let short =
    (Scenarios.Runner.run ~use_cache:false ~defects:Vehicle.Defects.repaired
       ~inject:
         (Inject.Plan.make ~seed:3 [ Inject.Spec.parse_exn "spike=3/0.8:host_accel" ])
       (Scenarios.Defs.get 9))
      .Scenarios.Runner.trace
  in
  Alcotest.(check (pair int int)) "trace lengths" (20_001, 19_362)
    (Trace.length full, Trace.length short);
  ignore (Vehicle.Monitors.run full);
  (* settle the warm-up's allocation into the counters *)
  Gc.full_major ();
  let before = Gc.quick_stat () in
  let runs = [ short; full; short; full ] in
  List.iter (fun tr -> ignore (Sys.opaque_identity (Vehicle.Monitors.run tr))) runs;
  Gc.full_major ();
  let after = Gc.quick_stat () in
  let per_run w = w /. float_of_int (List.length runs) in
  let direct =
    per_run
      (after.Gc.major_words -. before.Gc.major_words
      -. (after.Gc.promoted_words -. before.Gc.promoted_words))
  in
  let minor = per_run (after.Gc.minor_words -. before.Gc.minor_words) in
  Fmt.pr "Monitors.run: %.0f direct major words, %.0f minor words per run@." direct minor;
  Alcotest.(check bool)
    "fewer than 2,000 direct major words per run" true (direct < 2000.);
  Alcotest.(check bool) "a quarter of the state-at-a-time minor words" true
    (minor <= (608_464. +. 551_129.) /. 2. /. 4.)

(* The 1 ms tick allocates only what changes: a bit-identical float write
   keeps its cell, the kernel copies and the trace records only changed
   cells, and no component step allocates a closure, a list or a boxed
   float field. A repaired 20-s run of scenario 1 allocated 49.8 minor
   words per tick and one of scenario 9 53.0 (2 vCPU, dev profile); the
   bound leaves a fifth of headroom above the larger. Before, the same
   runs allocated 177 and 192 words per tick. *)
let test_kernel_allocation () =
  let simulate n =
    let s = Scenarios.Defs.get n in
    let world =
      Vehicle.System.world ~defects:Vehicle.Defects.repaired ~objects:s.objects
        ~events:s.events ()
    in
    let before = Gc.minor_words () in
    let tr = Vehicle.System.simulate ~duration:s.duration world in
    let words = Gc.minor_words () -. before in
    (Trace.length tr - 1, words)
  in
  ignore (simulate 1);
  List.iter
    (fun n ->
      let ticks, words = simulate n in
      let per_tick = words /. float_of_int ticks in
      Fmt.pr "scenario %d: %d ticks, %.1f minor words per tick@." n ticks per_tick;
      Alcotest.(check int) "a full 20-s run" 20_000 ticks;
      Alcotest.(check bool) "at most 64 minor words per tick" true (per_tick <= 64.))
    [ 1; 9 ]

let () =
  Alcotest.run "vehicle"
    [
      ( "goals",
        [
          Alcotest.test_case "inventory" `Quick test_goal_inventory;
          Alcotest.test_case "monitoring plan (Table 5.3)" `Quick test_monitoring_plan;
          Alcotest.test_case "goal 1 formula" `Quick test_goal1_formula;
          Alcotest.test_case "fused plan size" `Quick test_fused_plan_size;
          Alcotest.test_case "monitoring allocates no bitset once warm" `Slow
            test_monitor_allocation;
          Alcotest.test_case "a kernel tick allocates only what changes" `Slow
            test_kernel_allocation;
        ] );
      ( "features",
        [
          Alcotest.test_case "PA ghost profile (Fig. 5.3)" `Quick test_pa_ghost_profile;
          Alcotest.test_case "PA repaired" `Quick test_pa_ghost_repaired;
          Alcotest.test_case "CA engages and brakes" `Quick test_ca_engages_and_brakes;
          Alcotest.test_case "CA inert in reverse" `Quick test_ca_requires_forward_gear;
          Alcotest.test_case "ACC jerk-limited request (Fig. 5.7)" `Quick
            test_acc_jerk_limited_request;
          Alcotest.test_case "ACC disengaged leak (Fig. 5.6)" `Quick
            test_acc_disengaged_leak_defect;
          Alcotest.test_case "RCA gear defect (Fig. 5.12)" `Quick test_rca_gear_defect;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "selection debounce (Fig. 5.13)" `Quick test_selection_debounce;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "override and 0.101 s reselect (Fig. 5.9)" `Quick
            test_pedal_override_and_reselect;
          Alcotest.test_case "hard brake not overridden" `Quick
            test_hard_brake_not_overridden;
          Alcotest.test_case "selected-flag latch defect" `Quick test_selected_latch_defect;
          Alcotest.test_case "latch repaired" `Quick test_latch_repaired;
        ] );
      ( "plant",
        [
          Alcotest.test_case "tracks command" `Quick test_plant_tracks_command;
          Alcotest.test_case "rebound overshoot" `Quick test_plant_rebound_overshoot;
          Alcotest.test_case "collision detection" `Quick test_collision_detection;
        ] );
      ( "arbiter-properties",
        [
          QCheck_alcotest.to_alcotest prop_source_is_valid;
          QCheck_alcotest.to_alcotest prop_selection_requires_requesting;
          QCheck_alcotest.to_alcotest prop_override_latency_bounded;
        ] );
    ]
