(** The fault-injection subsystem: splittable PRNG, fault-model semantics
    on synthetic snapshots, the [--inject] spec round-trip, degradation-
    aware monitoring under NaN dropout, outcome-cache reuse of injected
    runs, and bit-for-bit sequential/parallel campaign determinism with
    the smoke grid's pinned detection-coverage matrix. *)

open Tl

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)

let test_prng () =
  Alcotest.(check bool) "derive is pure" true
    (Inject.Prng.derive 42 3 = Inject.Prng.derive 42 3);
  Alcotest.(check bool) "derive separates children" true
    (Inject.Prng.derive 42 0 <> Inject.Prng.derive 42 1);
  Alcotest.(check bool) "derive separates seeds" true
    (Inject.Prng.derive 1 0 <> Inject.Prng.derive 2 0);
  let draws g = List.init 32 (fun _ -> Inject.Prng.next_int64 g) in
  Alcotest.(check bool) "same seed, same stream" true
    (draws (Inject.Prng.create 7) = draws (Inject.Prng.create 7));
  Alcotest.(check bool) "different seed, different stream" true
    (draws (Inject.Prng.create 7) <> draws (Inject.Prng.create 8));
  let g = Inject.Prng.create 11 in
  for _ = 1 to 100 do
    let u = Inject.Prng.float g in
    Alcotest.(check bool) "float in [0,1)" true (u >= 0. && u < 1.);
    Alcotest.(check bool) "gaussian is finite" true
      (Float.is_finite (Inject.Prng.gaussian g))
  done

(* ------------------------------------------------------------------ *)
(* Fault-model semantics on synthetic snapshots                        *)

let snap x = State.of_list [ ("x", Value.Float x); ("flag", Value.Bool true) ]
let dt = 0.001

let feed fault xs =
  (* Drive one runtime over a 1 kHz sequence of snapshots; collect x. *)
  let rt = Inject.Fault.runtime ~seed:0 fault in
  List.mapi
    (fun i x ->
      State.float (Inject.Fault.apply rt ~dt ~now:(float_of_int i *. dt) (snap x)) "x")
    xs

let test_stuck_at () =
  let f = Inject.Fault.make ~target:"x" (Stuck_at (Value.Float 9.)) in
  Alcotest.(check (list (float 0.))) "output frozen" [ 9.; 9.; 9. ] (feed f [ 1.; 2.; 3. ]);
  let rt = Inject.Fault.runtime ~seed:0 f in
  Alcotest.(check bool) "other variables untouched" true
    (State.bool (Inject.Fault.apply rt ~dt ~now:0. (snap 1.)) "flag")

let test_window () =
  let f =
    Inject.Fault.make ~from_t:0.002 ~until_t:0.003 ~target:"x"
      (Stuck_at (Value.Float 9.))
  in
  Alcotest.(check (list (float 0.)))
    "active only inside [from,until]"
    [ 1.; 2.; 9.; 9.; 5. ]
    (feed f [ 1.; 2.; 3.; 4.; 5. ])

let test_dropout_hold () =
  let f = Inject.Fault.make ~from_t:0.002 ~target:"x" Dropout_hold in
  Alcotest.(check (list (float 0.)))
    "holds the last pre-fault value"
    [ 1.; 2.; 2.; 2. ]
    (feed f [ 1.; 2.; 3.; 4. ])

let test_dropout_missing () =
  (match feed (Inject.Fault.make ~target:"x" Dropout_missing) [ 1.; 2. ] with
  | [ a; b ] ->
      Alcotest.(check bool) "numeric target becomes NaN" true
        (Float.is_nan a && Float.is_nan b)
  | _ -> Alcotest.fail "unexpected shape");
  (* A non-numeric target degrades to hold-last rather than poisoning the
     variable with a float. *)
  let f = Inject.Fault.make ~from_t:0.001 ~target:"flag" Dropout_missing in
  let rt = Inject.Fault.runtime ~seed:0 f in
  let s0 = Inject.Fault.apply rt ~dt ~now:0. (snap 1.) in
  Alcotest.(check bool) "pre-window pass-through" true (State.bool s0 "flag");
  let s1 = Inject.Fault.apply rt ~dt ~now:0.001 (snap 1.) in
  Alcotest.(check bool) "bool target held, still a bool" true (State.bool s1 "flag")

let test_delay () =
  let f = Inject.Fault.make ~target:"x" (Delay 2) in
  Alcotest.(check (list (float 0.)))
    "k-state delay line"
    [ 1.; 1.; 1.; 2.; 3. ]
    (feed f [ 1.; 2.; 3.; 4.; 5. ])

let test_noise_determinism () =
  let f = Inject.Fault.make ~target:"x" (Noise 0.5) in
  let xs = List.init 50 (fun i -> float_of_int i) in
  Alcotest.(check bool) "same seed, same noise" true (feed f xs = feed f xs);
  let with_seed seed =
    let rt = Inject.Fault.runtime ~seed f in
    List.mapi
      (fun i x ->
        State.float (Inject.Fault.apply rt ~dt ~now:(float_of_int i *. dt) (snap x)) "x")
      xs
  in
  Alcotest.(check bool) "different seed, different noise" true
    (with_seed 1 <> with_seed 2);
  Alcotest.(check bool) "noise actually perturbs" true (feed f xs <> xs)

let repaired = Vehicle.Defects.repaired

let test_absent_target () =
  let f = Inject.Fault.make ~target:"nonexistent" (Stuck_at (Value.Float 9.)) in
  let rt = Inject.Fault.runtime ~seed:0 f in
  let s = snap 1. in
  Alcotest.(check bool) "absent target is a no-op" true
    (State.equal s (Inject.Fault.apply rt ~dt ~now:0. s))

(* ------------------------------------------------------------------ *)
(* Frame path = State.t adapter                                        *)

(* Seeded plans over every fault model, some on a target the world lacks:
   the frame interposer the runner uses and the [State.t] interposer of
   [Vehicle.System.run ~interpose] must record the same trace. *)
let gen_plan =
  let open QCheck.Gen in
  let model =
    oneof
      [
        map (fun x -> Inject.Fault.Stuck_at (Value.Float x)) (float_range (-5.) 5.);
        map (fun x -> Inject.Fault.Stuck_at (Value.Bool x)) bool;
        return Inject.Fault.Dropout_hold;
        return Inject.Fault.Dropout_missing;
        map (fun k -> Inject.Fault.Delay k) (int_range 1 300);
        map (fun x -> Inject.Fault.Noise x) (float_range 0.01 1.);
        map (fun x -> Inject.Fault.Drift x) (float_range (-1.) 1.);
        map2
          (fun m r -> Inject.Fault.Spike (m, r))
          (float_range (-5.) 5.) (float_range 0.5 20.);
        map (fun x -> Inject.Fault.Intermittent x) (float_range 0.01 0.5);
      ]
  in
  let target =
    oneofl
      Vehicle.Signals.
        [
          host_speed; host_accel; host_jerk; object_range; object_detected;
          object_closing_speed; accel_cmd; accel_source; gear; accel_req "CA";
          "nonexistent";
        ]
  in
  let fault =
    map3
      (fun model target (from_t, len) ->
        Inject.Fault.make ~from_t ~until_t:(from_t +. len) ~target model)
      model target
      (pair (float_range 0. 1.5) (float_range 0. 2.))
  in
  map3
    (fun seed faults n -> (Inject.Plan.make ~seed faults, n))
    (int_range 0 1000) (list_size (int_range 1 3) fault) (int_range 1 10)

let prop_frame_path_matches_adapter =
  QCheck.Test.make ~count:40 ~name:"frame interposer = State.t interposer"
    (QCheck.make
       ~print:(fun (p, n) -> Printf.sprintf "scenario %d, %s" n (Inject.Plan.to_string p))
       gen_plan)
    (fun (plan, n) ->
      let s = Scenarios.Defs.get n in
      let duration = 2.0 and dt = Vehicle.System.dt in
      let world () =
        Vehicle.System.world ~defects:repaired ~objects:s.Scenarios.Defs.objects
          ~events:s.Scenarios.Defs.events ()
      in
      (* a type-changing fault may make a component raise: then both must *)
      let outcome f =
        match f () with
        | tr -> Ok (Marshal.to_string (tr : Trace.t) [])
        | exception e -> Error (Printexc.to_string e)
      in
      let frames =
        outcome (fun () ->
            let w = world () in
            Vehicle.System.simulate ~duration
              ~transform:(Inject.Plan.frame_interposer ~dt plan ~slot:(Sim.World.slot w))
              w)
      in
      let states =
        outcome (fun () ->
            Vehicle.System.run ~defects:repaired ~duration
              ~objects:s.Scenarios.Defs.objects ~events:s.Scenarios.Defs.events
              ~interpose:(Inject.Plan.interposer ~dt plan)
              ())
      in
      frames = states)

(* ------------------------------------------------------------------ *)
(* Spec round-trip                                                     *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      Alcotest.(check string) spec spec
        (Inject.Fault.to_string (Inject.Spec.parse_exn spec)))
    [
      "stuck=3:ca_accel_req";
      "stuck=false:object_detected";
      "stuck=D:gear";
      "hold:object_range";
      "nan:host_jerk@2..8";
      "delay=150:accel_cmd";
      "noise=0.25:object_closing_speed";
      "drift=0.1:object_range@5..";
      "spike=4/0.5:host_accel";
      "flicker=0.2:object_detected";
    ]

let test_spec_errors () =
  List.iter
    (fun bad ->
      match Inject.Spec.parse bad with
      | Error _ -> ()
      | Ok f ->
          Alcotest.failf "accepted %S as %s" bad (Inject.Fault.to_string f))
    [ ""; "x"; "stuck:"; "stuck=:x"; "delay=no:x"; "wombat=1:x"; "nan:x@b..c" ]

(* ------------------------------------------------------------------ *)
(* Plans, degradation-aware monitoring, cache reuse                    *)

let nan_jerk =
  Inject.Fault.make ~from_t:2.0 ~until_t:8.0 ~target:Vehicle.Signals.host_jerk
    Dropout_missing

let test_monitor_inhibition () =
  (* NaN on the jerk channel must inhibit the goal-2 jerk monitor — a
     distinct outcome, not a false negative — while leaving the physics
     (and hence every other monitor) untouched. *)
  let o =
    Scenarios.Runner.run ~defects:repaired
      ~inject:(Inject.Plan.make ~seed:42 [ nan_jerk ])
      (Scenarios.Defs.get 1)
  in
  let inhibited =
    List.filter
      (fun (r : Vehicle.Monitors.result) -> r.Vehicle.Monitors.inhibited <> [])
      o.Scenarios.Runner.results
  in
  Alcotest.(check bool) "some monitor inhibited" true (inhibited <> []);
  let reported =
    List.fold_left
      (fun acc (_, (r : Rtmon.Report.t)) -> acc + r.Rtmon.Report.inhibited)
      0 o.Scenarios.Runner.reports
  in
  Alcotest.(check bool) "reports count the inhibition" true (reported > 0);
  Alcotest.(check bool) "reports name the inhibited monitor" true
    (List.exists
       (fun (_, (r : Rtmon.Report.t)) -> r.Rtmon.Report.inhibitions <> [])
       o.Scenarios.Runner.reports);
  let baseline = Scenarios.Runner.run ~defects:repaired (Scenarios.Defs.get 1) in
  Alcotest.(check bool) "physics untouched by the NaN channel" true
    (baseline.Scenarios.Runner.end_time = o.Scenarios.Runner.end_time)

(* The fused Table 5.3 plan against the per-monitor reference on runs
   whose NaN faults split the monitors into several inhibition groups. *)
let test_fused_plan_matches_reference () =
  List.iter
    (fun (faults, n) ->
      let o =
        Scenarios.Runner.run ~use_cache:false ~defects:repaired
          ~inject:(Inject.Plan.make ~seed:7 (List.map Inject.Spec.parse_exn faults))
          (Scenarios.Defs.get n)
      in
      let trace = o.Scenarios.Runner.trace in
      let dt = Trace.dt trace in
      List.iter
        (fun (r : Vehicle.Monitors.result) ->
          let st =
            Rtmon.Incremental.run_trace_status
              r.Vehicle.Monitors.entry.Vehicle.Monitors.goal.Kaos.Goal.formal trace
          in
          let id = r.Vehicle.Monitors.entry.Vehicle.Monitors.id in
          Alcotest.(check bool) (id ^ " violations") true
            (r.Vehicle.Monitors.violations = Rtmon.Incremental.fails ~dt st);
          Alcotest.(check bool) (id ^ " inhibitions") true
            (r.Vehicle.Monitors.inhibited = Rtmon.Incremental.inhibitions ~dt st))
        o.Scenarios.Runner.results;
      Alcotest.(check bool) "some monitor inhibited" true
        (List.exists
           (fun (r : Vehicle.Monitors.result) -> r.Vehicle.Monitors.inhibited <> [])
           o.Scenarios.Runner.results))
    [
      ([ "nan:host_jerk@1..3"; "nan:host_accel@2..5" ], 2);
      ([ "nan:host_accel@4..9"; "flicker=0.3:host_speed" ], 5);
    ]

let test_injected_runs_hit_cache () =
  let run () =
    Scenarios.Runner.run ~defects:repaired
      ~inject:(Inject.Plan.make ~seed:42 [ nan_jerk ])
      (Scenarios.Defs.get 1)
  in
  let first = run () in
  let hits0 = (Scenarios.Runner.cache_stats ()).Exec.Memo.hits in
  let second = run () in
  let hits1 = (Scenarios.Runner.cache_stats ()).Exec.Memo.hits in
  Alcotest.(check bool) "repeat injected run is a warm hit" true (hits1 > hits0);
  Alcotest.(check bool) "cache returns the same outcome" true (first == second)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

(** The smoke grid's detection-coverage matrix is pinned: seed 42,
    repaired defects, scenarios {1,3,7} — one row per detection class
    (see [Campaign.smoke]). Any drift here means injection, monitoring or
    classification changed behaviour. *)
let test_smoke_campaign_matrix () =
  let c = Scenarios.Campaign.run (Scenarios.Campaign.smoke ()) in
  Alcotest.(check (list int)) "scenario columns" [ 1; 3; 7 ] c.Scenarios.Campaign.scenarios;
  Alcotest.(check int) "cells" 12 (List.length c.Scenarios.Campaign.cells);
  Alcotest.(check int) "detected" 3 c.Scenarios.Campaign.detected;
  Alcotest.(check int) "missed" 4 c.Scenarios.Campaign.missed;
  Alcotest.(check int) "spurious" 1 c.Scenarios.Campaign.spurious;
  Alcotest.(check int) "no effect" 4 c.Scenarios.Campaign.no_effect;
  Alcotest.(check int) "hits" 70 c.Scenarios.Campaign.hits;
  Alcotest.(check int) "false negatives" 22 c.Scenarios.Campaign.false_negatives;
  Alcotest.(check int) "false positives" 63 c.Scenarios.Campaign.false_positives;
  Alcotest.(check int) "inhibited" 3 c.Scenarios.Campaign.inhibited;
  (* The NaN-dropout row inhibits the jerk monitor in every scenario. *)
  let nan_cells =
    List.filter
      (fun (cell : Scenarios.Campaign.cell) ->
        cell.Scenarios.Campaign.fault.Inject.Fault.model = Inject.Fault.Dropout_missing)
      c.Scenarios.Campaign.cells
  in
  Alcotest.(check int) "NaN row present in all columns" 3 (List.length nan_cells);
  List.iter
    (fun (cell : Scenarios.Campaign.cell) ->
      Alcotest.(check bool) "NaN cell inhibits a monitor" true
        (cell.Scenarios.Campaign.inhibited > 0
        && cell.Scenarios.Campaign.inhibitions <> []))
    nan_cells

(** Same-seed campaigns are bit-for-bit identical sequential vs parallel.
    Clearing the outcome cache before each run forces both to actually
    simulate — a shared cache would make the comparison vacuous.
    Campaign records are closure-free, so whole-record structural
    equality applies. *)
let test_campaign_determinism () =
  let grid =
    Scenarios.Campaign.
      {
        seed = 42;
        faults =
          [
            Inject.Fault.make
              ~target:(Vehicle.Signals.accel_req "CA")
              (Stuck_at (Value.Float 3.0));
            nan_jerk;
          ];
        grid_scenarios = [ Scenarios.Defs.get 1; Scenarios.Defs.get 7 ];
      }
  in
  Scenarios.Runner.clear_cache ();
  let sequential = Scenarios.Campaign.run ~domains:1 grid in
  Scenarios.Runner.clear_cache ();
  let parallel = Scenarios.Campaign.run ~domains:4 grid in
  Alcotest.(check bool) "sequential = parallel, bit for bit" true
    (sequential = parallel)

let () =
  Alcotest.run "inject"
    [
      ( "prng",
        [ Alcotest.test_case "splittable determinism" `Quick test_prng ] );
      ( "faults",
        [
          Alcotest.test_case "stuck_at" `Quick test_stuck_at;
          Alcotest.test_case "activation window" `Quick test_window;
          Alcotest.test_case "dropout (hold)" `Quick test_dropout_hold;
          Alcotest.test_case "dropout (missing/NaN)" `Quick test_dropout_missing;
          Alcotest.test_case "delay line" `Quick test_delay;
          Alcotest.test_case "noise determinism" `Quick test_noise_determinism;
          Alcotest.test_case "absent target no-op" `Quick test_absent_target;
          QCheck_alcotest.to_alcotest prop_frame_path_matches_adapter;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "malformed specs rejected" `Quick test_spec_errors;
        ] );
      ( "monitoring",
        [
          Alcotest.test_case "NaN inhibits, physics untouched" `Slow
            test_monitor_inhibition;
          Alcotest.test_case "injected runs hit the cache" `Slow
            test_injected_runs_hit_cache;
          Alcotest.test_case "fused plan = per-monitor reference" `Slow
            test_fused_plan_matches_reference;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "smoke coverage matrix pinned" `Slow
            test_smoke_campaign_matrix;
          Alcotest.test_case "sequential = parallel (bit-for-bit)" `Slow
            test_campaign_determinism;
        ] );
    ]
