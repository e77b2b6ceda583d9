(** Tests for the simulation kernel: the one-state observation delay,
    conflict detection, stimuli, early termination, determinism, the exact
    kernel golden, and a differential property against a [Map]-based
    reference interpreter. *)

open Tl

let b x = Value.Bool x
let f x = Value.Float x

(* A relay copies its input; chaining relays shows the one-state delay. *)
let relay ~name ~input ~output =
  Sim.Component.make ~name
    ~outputs:[ (output, b false) ]
    (fun slot ->
      let input = slot input and output = slot output in
      fun ctx -> Sim.Component.(set_bool ctx output (bool ctx input)))

let test_one_state_delay () =
  let source =
    Sim.Stimulus.component ~name:"src" ~init:[ ("in", b false) ]
      [ Sim.Stimulus.press 0.2 "in" ]
  in
  let w =
    Sim.World.make ~dt:0.1
      [ source; relay ~name:"r1" ~input:"in" ~output:"m"; relay ~name:"r2" ~input:"m" ~output:"out" ]
  in
  let tr = Sim.World.run ~until:0.6 w in
  let series v = List.map snd (Trace.bool_signal tr v) in
  Alcotest.(check (list bool)) "input" [ false; false; true; true; true; true; true ]
    (series "in");
  (* each relay adds exactly one state of delay *)
  Alcotest.(check (list bool)) "after one relay"
    [ false; false; false; true; true; true; true ] (series "m");
  Alcotest.(check (list bool)) "after two relays"
    [ false; false; false; false; true; true; true ] (series "out")

let test_conflict_detection () =
  let c1 = Sim.Component.constant ~name:"a" [ ("x", f 0.) ] in
  let c2 = Sim.Component.constant ~name:"b" [ ("x", f 1.) ] in
  Alcotest.check_raises "conflict"
    (Sim.World.Conflict "variable x controlled by both a and b") (fun () ->
      ignore (Sim.World.make ~dt:0.1 [ c1; c2 ]))

let test_conflict_opt_out () =
  (* The thesis relaxes strict single-controller (§4.2). *)
  let c1 = Sim.Component.constant ~name:"a" [ ("x", f 0.) ] in
  let c2 = Sim.Component.constant ~name:"b" [ ("x", f 1.) ] in
  ignore (Sim.World.make ~check_conflicts:false ~dt:0.1 [ c1; c2 ])

let test_stimulus_ordering () =
  (* Unsorted events apply in time order; later events override earlier. *)
  let s =
    Sim.Stimulus.component ~name:"s" ~init:[ ("v", f 0.) ]
      [ Sim.Stimulus.set 0.3 "v" (f 3.); Sim.Stimulus.set 0.1 "v" (f 1.) ]
  in
  let w = Sim.World.make ~dt:0.1 [ s ] in
  let tr = Sim.World.run ~until:0.5 w in
  Alcotest.(check (list (float 1e-9))) "profile" [ 0.; 1.; 1.; 3.; 3.; 3. ]
    (List.map snd (Trace.signal tr "v"))

let test_early_termination () =
  let counter =
    Sim.Component.make ~name:"c"
      ~outputs:[ ("n", Value.Int 0); ("done", b false) ]
      (fun slot ->
        let n = slot "n" and stop = slot "done" in
        fun ctx ->
          match Sim.Component.get ctx n with
          | Value.Int k ->
              Sim.Component.set ctx n (Value.Int (k + 1));
              Sim.Component.set_bool ctx stop (k + 1 >= 3)
          | _ -> ())
  in
  let w = Sim.World.make ~dt:1.0 [ counter ] in
  let tr = Sim.World.run ~stop:"done" ~until:100. w in
  Alcotest.(check int) "stopped at n=3 (states 0..3)" 4 (Trace.length tr)

(* Components keep their state in the steps bound by [World.make], so a
   second run of one world would start where the first ended (a stimulus
   whose cursor is past its last event, integrators already wound up). *)
let test_world_runs_once () =
  let s =
    Sim.Stimulus.component ~name:"s" ~init:[ ("v", f 0.) ] [ Sim.Stimulus.set 0.2 "v" (f 1.) ]
  in
  let w = Sim.World.make ~dt:0.1 [ s ] in
  ignore (Sim.World.run ~until:0.5 w);
  Alcotest.check_raises "second run" (Invalid_argument "Sim.World.run: this world has already run")
    (fun () -> ignore (Sim.World.run ~until:0.5 w))

let test_determinism () =
  let run () =
    let tr = Elevator.Simulation.run () in
    Trace.signal tr "elevator_position"
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let test_unwritten_variables_persist () =
  let once =
    let fired = ref false in
    Sim.Component.make ~name:"once" ~outputs:[ ("y", f 7.) ] (fun slot ->
        let y = slot "y" in
        fun ctx ->
          if not !fired then begin
            fired := true;
            Sim.Component.set ctx y (f 9.)
          end)
  in
  let w = Sim.World.make ~dt:1.0 [ once ] in
  let tr = Sim.World.run ~until:3. w in
  Alcotest.(check (list (float 1e-9))) "holds last written value" [ 7.; 9.; 9.; 9. ]
    (List.map snd (Trace.signal tr "y"))

(* ------------------------------------------------------------------ *)
(* Exact kernel golden                                                  *)

(* Every cell of every state as text, floats as [%h]: unlike [Marshal]
   bytes, the digest cannot depend on how values are physically shared.
   Each row is digested, then the row digests. *)
let render_value buf = function
  | Value.Bool x -> Buffer.add_string buf (if x then "b1" else "b0")
  | Value.Int i ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int i)
  | Value.Float x ->
      Buffer.add_char buf 'f';
      Buffer.add_string buf (Printf.sprintf "%h" x)
  | Value.Sym s ->
      Buffer.add_char buf 's';
      Buffer.add_string buf (String.escaped s)

let render_state buf i s =
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int i);
  State.iter
    (fun k v ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      render_value buf v)
    s

let trace_digest tr =
  let rows = Buffer.create (16 * (Trace.length tr + 1)) in
  let row = Buffer.create 4096 in
  Printf.bprintf rows "dt=%h len=%d\n" (Trace.dt tr) (Trace.length tr);
  Trace.iteri
    (fun i s ->
      render_state row i s;
      Buffer.add_string rows (Digest.string (Buffer.contents row)))
    tr;
  Digest.string (Buffer.contents rows)

(* A repaired scenario run through [Runner]'s frame path with the faults
   [specs], seeded 42. *)
let injected (specs, n) =
  ( Printf.sprintf "inject %s on %d" (String.concat " + " specs) n,
    fun () ->
      (Scenarios.Runner.run ~use_cache:false ~defects:Vehicle.Defects.repaired
         ~inject:(Inject.Plan.make ~seed:42 (List.map Inject.Spec.parse_exn specs))
         (Scenarios.Defs.get n))
        .Scenarios.Runner.trace )

(* The ten scenarios as evaluated and repaired, the elevator, and one
   seeded injected run per fault model. *)
let golden_runs () =
  let scenarios label defects =
    List.map
      (fun (s : Scenarios.Defs.t) ->
        ( Printf.sprintf "%s %d" label s.number,
          fun () ->
            Vehicle.System.run ~defects ~duration:s.duration ~objects:s.objects
              ~events:s.events () ))
      Scenarios.Defs.all
  in
  scenarios "as_evaluated" Vehicle.Defects.as_evaluated
  @ scenarios "repaired" Vehicle.Defects.repaired
  @ [ ("elevator", fun () -> Elevator.Simulation.run ()) ]
  @ List.map
      (fun (spec, n) -> injected ([ spec ], n))
      [
        ("stuck=3:ca_accel_req", 1);
        ("hold:object_range@5..", 3);
        ("nan:host_jerk@2..8", 7);
        ("delay=150:accel_cmd", 1);
        ("noise=0.25:object_closing_speed", 3);
        ("drift=0.1:object_range@5..", 7);
        ("spike=4/0.5:host_accel", 1);
        ("flicker=0.2:host_speed", 1);
      ]

(* Computed with the [Map]-per-tick kernel this one replaced. A change
   meant to move traces regenerates them: render [golden_runs] with
   [trace_digest] and paste each label's hex digest, and the hex digest
   of their concatenation as [golden_total]. *)
let golden =
  [
    ("as_evaluated 1", "89484603fb736f96f8f3314af24b44e2");
    ("as_evaluated 2", "8bdbcdce7775a66e2df68eadb24763a1");
    ("as_evaluated 3", "19801d0649a3887f9bb806b99e665e00");
    ("as_evaluated 4", "774af0ee3908e54926ec6fc1c2d6d7c4");
    ("as_evaluated 5", "0f6142e1fb158fe3927986fceb6200c2");
    ("as_evaluated 6", "5e377a9ef4b4ef566425ef8d910b497d");
    ("as_evaluated 7", "fbb21c4ec3c23ebae8b22e615b392f4d");
    ("as_evaluated 8", "83e1e09e636b4a14bbf3e738baae0e96");
    ("as_evaluated 9", "a8ba07f0d4bccc3af11c822254aed48a");
    ("as_evaluated 10", "df65f57bd7fe063bd844d8abc4b5ae95");
    ("repaired 1", "e8e317c6ca6d242a1d4d8ca13d98fa21");
    ("repaired 2", "7a171f584d68252a8a1b0ab21b070875");
    ("repaired 3", "cd487658a9b68afb0ae195ea08fa3d0d");
    ("repaired 4", "10cdcfb7587601bc74692ca5860aaace");
    ("repaired 5", "f7ea5bbbc8dc135b2f7482b5d116a5f2");
    ("repaired 6", "9c5c0f79f5a563c0632681b11cec2755");
    ("repaired 7", "3e45387fc042b82289db84310c4df9c6");
    ("repaired 8", "ddc3f66ba527c524f82a62f90eb86a88");
    ("repaired 9", "94ad70558abce03a905cfa1ed7848ba9");
    ("repaired 10", "3c294713093b87dc44471cb957bc516e");
    ("elevator", "e834cbc129d1b9305bfeab9d5a91101c");
    ("inject stuck=3:ca_accel_req on 1", "f81e478cd79dea0dfda2da24ff2dd7c0");
    ("inject hold:object_range@5.. on 3", "5ba03ee5919d5a67f8ba9e07782c2364");
    ("inject nan:host_jerk@2..8 on 7", "862bbf2ab4f88f8f5239ea8a138749cb");
    ("inject delay=150:accel_cmd on 1", "2c9579b29761cd6769bfc747e2a18ad0");
    ("inject noise=0.25:object_closing_speed on 3", "43fa6db084db5d374154a7ed2f14019d");
    ("inject drift=0.1:object_range@5.. on 7", "35f21280ddd6e777056ea13496da8585");
    ("inject spike=4/0.5:host_accel on 1", "a60029e148ea5369977847ffc715eac7");
    ("inject flicker=0.2:host_speed on 1", "66650a2251d80decc9f3712a06f2e926");
  ]

let golden_total = "aaba1206b899627774a991e1995c5e4b"

let test_kernel_golden () =
  let digests =
    List.map
      (fun (label, run) ->
        let d = trace_digest (run ()) in
        Alcotest.(check string) label (List.assoc label golden) (Digest.to_hex d);
        d)
      (golden_runs ())
  in
  Alcotest.(check int) "every golden run" (List.length golden) (List.length digests);
  Alcotest.(check string) "all runs" golden_total
    (Digest.to_hex (Digest.string (String.concat "" digests)))

(* ------------------------------------------------------------------ *)
(* Monitor-verdict golden                                               *)

(* Every vehicle run of [golden_runs], plus NaN runs whose degraded
   monitor inputs split Table 5.3's monitors into further inhibition
   groups ([object_range] is no monitored input: its run pins that a NaN
   there inhibits nothing). *)
let monitor_runs () =
  List.filter (fun (label, _) -> label <> "elevator") (golden_runs ())
  @ List.map injected
      [
        ([ "nan:host_accel@1..5" ], 2);
        ([ "nan:object_range@2..4" ], 6);
        ([ "nan:host_speed@3..6"; "nan:accel_cmd@4..9" ], 2);
      ]

(* MD5 of [Vehicle.Monitors.run]'s results marshalled without sharing,
   computed with the state-at-a-time fused runner. *)
let monitor_golden =
  [
("as_evaluated 1", "37037fd2e087c5b9c638feed51b843d9");
    ("as_evaluated 2", "646f1357a1e54e7b2aaab395ed3dd0d8");
    ("as_evaluated 3", "b3a83a65e5d3befdbaa4b5673d95810e");
    ("as_evaluated 4", "aec544e013a76b1d73bdee7fddf08acc");
    ("as_evaluated 5", "1db2ad7227e547e1391a2ad80f10271c");
    ("as_evaluated 6", "455a00a7ef7cc25f09b12aa494d8aeaf");
    ("as_evaluated 7", "8dc969bec7a9f1047bf6b2662de66464");
    ("as_evaluated 8", "b3a627f18ee0f89dc4687a2466a25c9a");
    ("as_evaluated 9", "1784b5a1523eb178c7f421d222e777d6");
    ("as_evaluated 10", "5028ed64c51324e1f0e7336f7ceb76d1");
    ("repaired 1", "97e64d642d8f26957818a606e925cfd7");
    ("repaired 2", "6451e759e86741452c10c7de88d0836e");
    ("repaired 3", "731942f1096d5cb33251711c73238946");
    ("repaired 4", "c71480d245a24094d9620598999f53ba");
    ("repaired 5", "46983ac4a7387a00f71ca368e04b95e6");
    ("repaired 6", "d585d15ca738b748c8af17c155e2c003");
    ("repaired 7", "8779e12007ed20d510be1e2b166c6da7");
    ("repaired 8", "46ad19d834271a30b8444a9a7aefbdcc");
    ("repaired 9", "0a56b05c2cb79a1458d6fbbb061355a9");
    ("repaired 10", "46ad19d834271a30b8444a9a7aefbdcc");
    ("inject stuck=3:ca_accel_req on 1", "0108025fdf18ccdee4719f75640bbb75");
    ("inject hold:object_range@5.. on 3", "46ad19d834271a30b8444a9a7aefbdcc");
    ("inject nan:host_jerk@2..8 on 7", "fc1a940aecf85a7c759e35dd665c57f9");
    ("inject delay=150:accel_cmd on 1", "932844894131943abf11bba16cf87f80");
    ("inject noise=0.25:object_closing_speed on 3", "fa1902737899b3d0d29388831c80c665");
    ("inject drift=0.1:object_range@5.. on 7", "8779e12007ed20d510be1e2b166c6da7");
    ("inject spike=4/0.5:host_accel on 1", "c5e691ace6863697b1422b1d23008045");
    ("inject flicker=0.2:host_speed on 1", "0024d4d57fca0c65a3f251cc12b76e9e");
    ("inject nan:host_accel@1..5 on 2", "d6f8a02421eafec6e6cda49ae4f13442");
    ("inject nan:object_range@2..4 on 6", "d585d15ca738b748c8af17c155e2c003");
    ( "inject nan:host_speed@3..6 + nan:accel_cmd@4..9 on 2",
      "3d933ca7384269c515d2861b2acba0b8" );
  ]

let monitor_golden_total = "fc3c95821fcaf6d6440774bad72700a6"

let test_monitor_golden () =
  let digests =
    List.map
      (fun (label, run) ->
        let d =
          Digest.string
            (Marshal.to_string (Vehicle.Monitors.run (run ())) [ Marshal.No_sharing ])
        in
        Alcotest.(check string) label (List.assoc label monitor_golden) (Digest.to_hex d);
        d)
      (monitor_runs ())
  in
  Alcotest.(check int) "every monitored run" (List.length monitor_golden)
    (List.length digests);
  Alcotest.(check string) "all monitored runs" monitor_golden_total
    (Digest.to_hex (Digest.string (String.concat "" digests)))

(* ------------------------------------------------------------------ *)
(* Differential property: slot kernel = Map-based reference            *)

(* A component as data, so that both interpreters run the same one. *)
type expr =
  | Const of Value.t
  | Copy of string  (** the previous value of a variable *)
  | Bump of string  (** a type-preserving change of a variable's value *)
  | Clock  (** [Float now] *)
  | Floats of float array
      (** [set_float] of float [tick mod n]: one float rewrites its own
          bits, two or more flip [0.]/[-0.] or NaN payloads *)
  | Float_of of string  (** [set_float] of a variable's previous value *)

type instr = { every : int; target : string; expr : expr }
type comp = { cname : string; outputs : (string * Value.t) list; prog : instr list }

let bump = function
  | Value.Float x -> Value.Float (x +. 0.5)
  | Value.Int i -> Value.Int (i + 1)
  | Value.Bool x -> Value.Bool (not x)
  | Value.Sym s -> Value.Sym (if s = "a" then "b" else "a")

let tick_of ~dt now = int_of_float (Float.round (now /. dt))

(* The reference: one [State.t] map per tick, every component reading the
   previous state and its bindings applied in order. *)
let reference ~dt ~until comps =
  let eval now prev c =
    List.filter_map
      (fun ins ->
        if tick_of ~dt now mod ins.every <> 0 then None
        else
          let v =
            match ins.expr with
            | Const v -> v
            | Copy x -> State.get prev x
            | Bump x -> bump (State.get prev x)
            | Clock -> Value.Float now
            | Floats a -> Value.Float a.(tick_of ~dt now mod Array.length a)
            | Float_of x -> Value.Float (Value.to_float (State.get prev x))
          in
          Some (ins.target, v))
      c.prog
  in
  let initial = State.of_list (List.concat_map (fun c -> c.outputs) comps) in
  let n_max = int_of_float (Float.ceil (until /. dt)) in
  let rec go i prev acc =
    if i > n_max then List.rev acc
    else
      let now = float_of_int i *. dt in
      let next =
        List.fold_left (fun next c -> State.update (eval now prev c) next) prev comps
      in
      go (i + 1) next (next :: acc)
  in
  go 1 initial [ initial ]

let component ~dt c =
  let open Sim.Component in
  Sim.Component.make ~name:c.cname ~outputs:c.outputs (fun slot ->
      let bound =
        List.map
          (fun ins ->
            let target = slot ins.target in
            let write =
              match ins.expr with
              | Const v -> fun ctx -> set ctx target v
              | Copy x ->
                  let s = slot x in
                  fun ctx -> set ctx target (get ctx s)
              | Bump x ->
                  let s = slot x in
                  fun ctx -> set ctx target (bump (get ctx s))
              | Clock -> fun ctx -> set ctx target (Value.Float ctx.now)
              | Floats a ->
                  fun ctx ->
                    set_float ctx target a.(tick_of ~dt ctx.now mod Array.length a)
              | Float_of x ->
                  let s = slot x in
                  fun ctx -> set_float ctx target (float ctx s)
            in
            (ins.every, write))
          c.prog
      in
      fun ctx ->
        List.iter
          (fun (every, write) -> if tick_of ~dt ctx.now mod every = 0 then write ctx)
          bound)

let gen_comps =
  let open QCheck.Gen in
  let declared = [ "a"; "b"; "c"; "d"; "e" ] in
  let undeclared = [ "u"; "w" ] in
  let value =
    oneof
      [
        map (fun x -> Value.Bool x) bool;
        map (fun i -> Value.Int i) (int_range (-3) 3);
        (* 0. and -0. are different values to a constant column *)
        map (fun x -> Value.Float x) (oneofl [ 0.; -0.; 0.; -0.; 1.5; Float.nan; 1e300 ]);
        map (fun s -> Value.Sym s) (oneofl [ "a"; "b"; "c" ]);
      ]
  in
  let read_var = frequency [ (9, oneofl declared); (1, oneofl undeclared) ] in
  (* Two NaNs that differ only in their payload bits. *)
  let nan1 = Int64.float_of_bits 0x7FF8_0000_0000_0001L in
  let nan2 = Int64.float_of_bits 0x7FF8_0000_0000_0002L in
  let floats =
    map Array.of_list
      (list_size (int_range 1 3) (oneofl [ 0.; -0.; nan1; nan2; 1.5; 1.5 ]))
  in
  let expr =
    frequency
      [
        (3, map (fun v -> Const v) value);
        (3, map (fun x -> Copy x) read_var);
        (3, map (fun x -> Bump x) read_var);
        (1, return Clock);
        (3, map (fun a -> Floats a) floats);
        (2, map (fun x -> Float_of x) read_var);
      ]
  in
  let instr =
    map3
      (fun every target expr -> { every; target; expr })
      (int_range 1 4)
      (frequency [ (4, oneofl declared); (1, oneofl undeclared) ])
      expr
  in
  let comp i =
    map2
      (fun outs prog -> { cname = Printf.sprintf "c%d" i; outputs = outs; prog })
      (list_size (int_range 0 3) (pair (oneofl declared) value))
      (list_size (int_range 0 4) instr)
  in
  int_range 1 4 >>= fun n -> flatten_l (List.init n comp)

let print_comps comps =
  let pe = function
    | Const v -> Value.to_string v
    | Copy x -> "copy " ^ x
    | Bump x -> "bump " ^ x
    | Clock -> "now"
    | Floats a ->
        "floats "
        ^ String.concat "/"
            (Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) a))
    | Float_of x -> "float " ^ x
  in
  String.concat "; "
    (List.map
       (fun c ->
         Printf.sprintf "%s{%s | %s}" c.cname
           (String.concat ","
              (List.map (fun (k, v) -> k ^ "=" ^ Value.to_string v) c.outputs))
           (String.concat ","
              (List.map
                 (fun i -> Printf.sprintf "%s:=%s/%d" i.target (pe i.expr) i.every)
                 c.prog)))
       comps)

let outcome f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e)

let prop_slot_kernel_matches_reference =
  QCheck.Test.make ~count:300 ~name:"slot kernel = Map reference (rows and bytes)"
    (QCheck.make ~print:print_comps gen_comps)
    (fun comps ->
      let dt = 0.5 and until = 6. in
      let slot =
        outcome (fun () ->
            Sim.World.run ~until
              (Sim.World.make ~check_conflicts:false ~dt
                 (List.map (component ~dt) comps)))
      in
      match (slot, outcome (fun () -> reference ~dt ~until comps)) with
      | Ok tr, Ok rows ->
          let text s =
            let buf = Buffer.create 64 in
            render_state buf 0 s;
            Buffer.contents buf
          in
          Trace.length tr = List.length rows
          && List.for_all2 ( = )
               (List.init (Trace.length tr) (fun i -> text (Trace.get tr i)))
               (List.map text rows)
          (* the reference rows share no block with the kernel's values *)
          && Marshal.to_string tr []
             = Marshal.to_string
                 (Trace.make ~dt
                    (Marshal.from_string (Marshal.to_string rows [ Marshal.No_sharing ]) 0))
                 []
      | Error e, Error e' -> e = e'
      | Ok _, Error e | Error e, Ok _ -> QCheck.Test.fail_reportf "only one raised: %s" e)

let () =
  Alcotest.run "sim"
    [
      ( "kernel",
        [
          Alcotest.test_case "one-state observation delay" `Quick test_one_state_delay;
          Alcotest.test_case "conflict detection" `Quick test_conflict_detection;
          Alcotest.test_case "conflict opt-out" `Quick test_conflict_opt_out;
          Alcotest.test_case "stimulus ordering" `Quick test_stimulus_ordering;
          Alcotest.test_case "early termination" `Quick test_early_termination;
          Alcotest.test_case "unwritten variables persist" `Quick test_unwritten_variables_persist;
          QCheck_alcotest.to_alcotest prop_slot_kernel_matches_reference;
          Alcotest.test_case "a world runs once" `Quick test_world_runs_once;
        ] );
      ( "integration",
        [
          Alcotest.test_case "elevator determinism" `Slow test_determinism;
          Alcotest.test_case "kernel golden" `Slow test_kernel_golden;
          Alcotest.test_case "monitor-verdict golden" `Slow test_monitor_golden;
        ] );
    ]
