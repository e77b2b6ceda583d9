(** Tests for the incremental monitors: the central property is equivalence
    with the reference trace semantics on the full past-time fragment. *)

open Tl

let state bits vars = State.of_list (List.map2 (fun v x -> (v, Value.Bool x)) vars bits)

(* Reuse the same generators as test_tl (duplicated deliberately: the suites
   are independent executables). *)
let vars3 = [ "p"; "q"; "r" ]

let gen_formula =
  let open QCheck.Gen in
  let base = map (fun v -> Formula.bvar v) (oneofl vars3) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then base
         else
           frequency
             [
               (2, base);
               (1, map Formula.not_ (self (n - 1)));
               (1, map2 (fun a b -> Formula.And (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Or (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Iff (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map Formula.prev (self (n - 1)));
               (1, map Formula.once (self (n - 1)));
               (1, map Formula.hist (self (n - 1)));
               (1, map Formula.rose (self (n - 1)));
               ( 1,
                 map2
                   (fun k f -> Formula.prev_for (float_of_int (1 + (k mod 4))) f)
                   small_nat (self (n - 1)) );
               ( 1,
                 map2
                   (fun k f -> Formula.once_within (float_of_int (1 + (k mod 4))) f)
                   small_nat (self (n - 1)) );
             ])

let gen_trace =
  let open QCheck.Gen in
  let gen_state = map (fun bits -> state bits vars3) (list_repeat 3 bool) in
  map (fun ss -> Trace.make ~dt:1.0 ss) (list_size (int_range 1 12) gen_state)

let arb =
  QCheck.make
    ~print:(fun (f, tr) ->
      Fmt.str "%a over %d states" Formula.pp f (Trace.length tr))
    QCheck.Gen.(pair gen_formula gen_trace)

(** THE property: the pure incremental monitor computes exactly the
    reference semantics at every state. *)
let prop_incremental_equals_reference =
  QCheck.Test.make ~name:"incremental monitor ≡ reference semantics" ~count:500 arb
    (fun (phi, tr) ->
      let inc = Rtmon.Incremental.run_trace phi tr in
      let ref_ = Eval.series tr phi in
      inc = ref_)

(** Monitors never mutate their input: stepping the same monitor twice with
    the same state yields the same result. *)
let prop_purity =
  QCheck.Test.make ~name:"monitor step is pure" ~count:200 arb (fun (phi, tr) ->
      let m0 = Rtmon.Incremental.create ~dt:1.0 phi in
      let s = Trace.get tr 0 in
      let r1, m1 = Rtmon.Incremental.step m0 s in
      let r2, m2 = Rtmon.Incremental.step m0 s in
      r1 = r2 && Rtmon.Incremental.mem m1 = Rtmon.Incremental.mem m2)

let test_rejects_future () =
  Alcotest.check_raises "eventually rejected"
    (Rtmon.Incremental.Not_monitorable
       "formula contains future operators: ♦p")
    (fun () ->
      ignore (Rtmon.Incremental.create ~dt:1.0 (Formula.eventually (Formula.bvar "p"))))

let test_invariant_stripping () =
  (* Monitoring P ⇒ Q checks P → Q state by state. *)
  let phi = Formula.entails (Formula.bvar "p") (Formula.bvar "q") in
  let tr =
    Trace.make ~dt:1.0
      [
        state [ true; true; false ] vars3;
        state [ true; false; false ] vars3;
        state [ false; false; false ] vars3;
      ]
  in
  Alcotest.(check (list bool)) "per-state" [ true; false; true ]
    (Array.to_list (Rtmon.Incremental.run_trace phi tr))

(* ------------------------------------------------------------------ *)
(* Three-valued oracle: fused plan ≡ per-monitor reference ≡ semantics  *)

(* Typed columns: [f] floats with NaN cells, [i] ints, [s] symbols, [c]
   one value for the whole trace (sometimes NaN), [g] floats with
   presence gaps, [m] a mix of ints and floats (its atoms refuse to bind
   to columns, so the per-formula fallback runs), [b] booleans. *)
let gen_typed_trace =
  let open QCheck.Gen in
  let num = oneofl [ -1.; 0.; 1.; 2.5 ] in
  let with_nan = frequency [ (5, num); (1, return Float.nan) ] in
  let gen_state =
    map
      (fun ((f, i, s), (g, m, b)) ->
        State.of_list
          (List.filter_map Fun.id
             [
               Some ("f", Value.Float f);
               Some ("i", Value.Int i);
               Some ("s", Value.Sym s);
               Option.map (fun g -> ("g", Value.Float g)) g;
               Some ("m", m);
               Some ("b", Value.Bool b);
             ]))
      (pair
         (triple with_nan (int_range 0 3) (oneofl [ "A"; "B"; "C" ]))
         (triple
            (frequency [ (3, map Option.some num); (1, return None) ])
            (frequency
               [
                 (2, map (fun k -> Value.Int k) (int_range 0 2));
                 (2, map (fun x -> Value.Float x) num);
                 (1, return (Value.Float Float.nan));
               ])
            bool))
  in
  map2
    (fun c ss ->
      Trace.make ~dt:1.0 (List.map (State.set "c" (Value.Float c)) ss))
    (oneofl [ 1.; 2.5; Float.nan ])
    (list_size (int_range 1 14) gen_state)

let gen_term_over vars =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Term.var (oneofl vars);
        map Term.float (oneofl [ 0.; 1.; 2.5 ]);
        map Term.int (int_range 0 2);
      ]
  in
  frequency
    [
      (4, leaf);
      (1, map2 (fun a b -> Term.Add (a, b)) leaf leaf);
      (1, map (fun a -> Term.Abs a) leaf);
    ]

(* Well-typed atoms only: an ill-typed one raises in the reference,
   which is lazier than a monitor about which atoms it evaluates. Terms
   read the numeric variables [vars]. *)
let gen_atom_over vars =
  let open QCheck.Gen in
  let gen_term = gen_term_over vars in
  let cmp =
    oneofl [ Formula.lt; Formula.le; Formula.gt; Formula.ge; Formula.eq; Formula.ne ]
  in
  frequency
    [
      (4, map3 (fun op a b -> op a b) cmp gen_term gen_term);
      (2, map (fun s -> Formula.var_is "s" s) (oneofl [ "A"; "B" ]));
      (1, map (fun s -> Formula.ne (Term.var "s") (Term.sym s)) (oneofl [ "A"; "C" ]));
      (2, return (Formula.bvar "b"));
    ]

let gen_body leaves =
  let open QCheck.Gen in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n <= 0 then leaves
         else
           frequency
             [
               (2, leaves);
               (1, map Formula.not_ (self (n - 1)));
               (1, map2 (fun a b -> Formula.And (a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Formula.Or (a, b)) (self (n / 2)) (self (n / 2)));
               ( 1,
                 map2 (fun a b -> Formula.Implies (a, b)) (self (n / 2)) (self (n / 2)) );
               (1, map Formula.prev (self (n - 1)));
               (1, map Formula.once (self (n - 1)));
               (1, map Formula.hist (self (n - 1)));
               (1, map Formula.rose (self (n - 1)));
               ( 1,
                 map2
                   (fun k f -> Formula.prev_for (float_of_int (1 + (k mod 3))) f)
                   small_nat (self (n - 1)) );
               ( 1,
                 map2
                   (fun k f -> Formula.once_within (float_of_int (1 + (k mod 3))) f)
                   small_nat (self (n - 1)) );
             ])

(* 2-8 formulas over a small shared pool of atoms and subformulas, so the
   plan hash-conses across formulas; half are stated as invariants. *)
let gen_formulas_over vars =
  let open QCheck.Gen in
  list_size (int_range 2 4) (gen_atom_over vars) >>= fun atoms ->
  let atoms = oneofl atoms in
  list_size (int_range 1 3) (gen_body atoms) >>= fun shared ->
  let leaves = frequency [ (1, atoms); (1, oneofl shared) ] in
  list_size (int_range 2 8)
    (map2 (fun inv f -> if inv then Formula.always f else f) bool (gen_body leaves))

let gen_formulas = gen_formulas_over [ "f"; "i"; "c"; "g"; "m" ]

(* The three-valued semantics, independent of the monitors: a state is
   inhibited for [f] when any variable of [f] is absent or NaN there; the
   other states take [Eval.series] of the body over the trace with the
   inhibited states removed — which is what frozen memory means. *)
let reference ?(series = Eval.series) f tr =
  let body = Option.get (Formula.invariant_body f) in
  let n = Trace.length tr in
  let inhibited =
    Array.init n (fun i ->
        let st = Trace.get tr i in
        List.exists
          (fun v ->
            match State.find_opt v st with
            | None -> true
            | Some (Value.Float x) -> Float.is_nan x
            | Some _ -> false)
          (Formula.vars f))
  in
  let kept = List.filter (fun i -> not inhibited.(i)) (List.init n Fun.id) in
  let kept_series =
    series (Trace.make ~dt:(Trace.dt tr) (List.map (Trace.get tr) kept)) body
  in
  let ok = Array.make n true in
  List.iteri (fun pos i -> ok.(i) <- kept_series.(pos)) kept;
  let dt = Trace.dt tr in
  ( Rtmon.Violation.runs ~dt n (fun i -> (not inhibited.(i)) && not ok.(i)),
    Rtmon.Violation.runs ~dt n (fun i -> inhibited.(i)) )

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* [run] ≡ [run_trace_status] ≡ [reference] on every formula of [fs]. *)
let agrees ?series fs tr =
  let dt = Trace.dt tr in
  let plan = Rtmon.Incremental.plan ~dt fs in
  let fused =
    outcome (fun () ->
        Array.map
          (fun (v : Rtmon.Incremental.verdict) ->
            (v.Rtmon.Incremental.violations, v.Rtmon.Incremental.inhibited))
          (Rtmon.Incremental.run plan tr))
  in
  let per_formula =
    List.map
      (fun f ->
        outcome (fun () ->
            let st = Rtmon.Incremental.run_trace_status f tr in
            (Rtmon.Incremental.fails ~dt st, Rtmon.Incremental.inhibitions ~dt st)))
      fs
  in
  List.for_all2 (fun f r -> outcome (fun () -> reference ?series f tr) = r) fs per_formula
  &&
  match fused with
  | Ok vs -> List.for_all2 (fun v r -> r = Ok v) (Array.to_list vs) per_formula
  | Error e -> List.find_opt Result.is_error per_formula = Some (Error e)

let prop_plan_equals_reference =
  QCheck.Test.make ~name:"fused plan ≡ run_trace_status ≡ three-valued reference"
    ~count:400
    (QCheck.make
       ~print:(fun (fs, tr) ->
         Fmt.str "%a@ over %d states" (Fmt.list ~sep:Fmt.semi Formula.pp) fs
           (Trace.length tr))
       QCheck.Gen.(pair gen_formulas gen_typed_trace))
    (fun (fs, tr) -> agrees fs tr)

(* The fallback is exercised: an ordered comparison on the mixed column
   cannot bind to columns, yet agrees with the reference. *)
let test_plan_fallback () =
  let tr =
    Trace.make ~dt:1.0
      (List.map
         (fun (m, f) -> State.of_list [ ("m", m); ("f", Value.Float f) ])
         [
           (Value.Int 0, 1.);
           (Value.Float 2.5, 1.);
           (Value.Int 3, Float.nan);
           (Value.Float 0.5, 0.);
         ])
  in
  let on_m = Formula.gt (Term.var "m") (Term.int 1) in
  let on_f = Formula.prev (Formula.gt (Term.var "f") (Term.float 0.5)) in
  let fs = [ on_m; Formula.and_ on_m on_f; on_f ] in
  let plan = Rtmon.Incremental.plan ~dt:1.0 fs in
  Alcotest.(check int) "shared subformulas" 4 (Rtmon.Incremental.op_count plan);
  let vs = Rtmon.Incremental.run plan tr in
  List.iteri
    (fun j f ->
      let viol, inh = reference f tr in
      let v = vs.(j) in
      Alcotest.(check bool)
        (Fmt.str "formula %d violations" j) true (v.Rtmon.Incremental.violations = viol);
      Alcotest.(check bool)
        (Fmt.str "formula %d inhibitions" j) true (v.Rtmon.Incremental.inhibited = inh))
    fs;
  let starts = List.map (fun iv -> iv.Rtmon.Violation.start_index) in
  Alcotest.(check (list int)) "m > 1 fails at 0 and 3" [ 0; 3 ]
    (starts vs.(0).Rtmon.Incremental.violations);
  Alcotest.(check (list int)) "NaN inhibits state 2" [ 2 ]
    (starts vs.(2).Rtmon.Incremental.inhibited)

(* Traces of 0-200 states, most of them one state either side of a
   64-state word boundary. Each column holds runs of 1-80 equal cells, so
   whole words agree and runs cross word boundaries: [f] floats with NaN
   runs, [u] floats above every constant the atoms compare with (a
   column whose comparisons are uniform bitsets), [g] floats with
   presence gaps, [i] ints, [s] symbols, [b] booleans, [m] a mix of ints
   and floats (the per-formula fallback) and [c] one value for the whole
   trace, sometimes NaN. *)
let gen_long_trace =
  let open QCheck.Gen in
  let num = oneofl [ -1.; 0.; 1.; 2.5 ] in
  let column n cell =
    map
      (fun runs ->
        let cells = Array.make n None and i = ref 0 in
        List.iter
          (fun (len, v) ->
            for _ = 1 to len do
              if !i < n then cells.(!i) <- v;
              incr i
            done)
          runs;
        (* the last run reaches the end *)
        let last = match List.rev runs with (_, v) :: _ -> v | [] -> None in
        for k = !i to n - 1 do
          cells.(k) <- last
        done;
        cells)
      (list_size (int_range 1 8) (pair (int_range 1 80) cell))
  in
  let some g = map Option.some g in
  let floats g = map (fun x -> Value.Float x) g in
  frequency [ (3, oneofl [ 63; 64; 65; 127; 128; 129 ]); (1, int_range 0 200) ]
  >>= fun n ->
  let cols =
    [
      ("f", column n (some (floats (frequency [ (5, num); (1, return Float.nan) ]))));
      ("u", column n (some (floats (oneofl [ 3.; 4.; 5.5 ]))));
      ("g", column n (frequency [ (3, some (floats num)); (1, return None) ]));
      ("i", column n (some (map (fun k -> Value.Int k) (int_range 0 3))));
      ("s", column n (some (map (fun s -> Value.Sym s) (oneofl [ "A"; "B"; "C" ]))));
      ("b", column n (some (map (fun x -> Value.Bool x) bool)));
      ( "m",
        column n
          (some
             (frequency
                [
                  (2, map (fun k -> Value.Int k) (int_range 0 2));
                  (2, floats num);
                  (1, return (Value.Float Float.nan));
                ])) );
    ]
  in
  flatten_l (List.map (fun (v, g) -> map (fun cells -> (v, cells)) g) cols)
  >>= fun cols ->
  let cell i (v, cells) = Option.map (fun x -> (v, x)) cells.(i) in
  map
    (fun c ->
      Trace.init ~dt:1.0 n (fun i ->
          State.of_list (("c", Value.Float c) :: List.filter_map (cell i) cols)))
    (oneofl [ 1.; 2.5; Float.nan ])

(* [Eval.series] one operator at a time: each operand is replaced by a
   boolean variable holding its own series, so nested temporal operators
   cost one scan each, not one per enclosing state. [Eval.eval] reads an
   operand only through its truth values, so this is [Eval.series]. *)
let rec stepwise_series tr (f : Formula.t) =
  let over operands rebuild =
    let names = List.mapi (fun k _ -> Printf.sprintf "_%d" k) operands in
    let series = List.map (stepwise_series tr) operands in
    let sub =
      Trace.init ~dt:(Trace.dt tr) (Trace.length tr) (fun i ->
          State.of_list (List.map2 (fun v s -> (v, Value.Bool s.(i))) names series))
    in
    Eval.series sub (rebuild (List.map Formula.bvar names))
  in
  let one g op = over [ g ] (function [ a ] -> op a | _ -> assert false) in
  let two a b op = over [ a; b ] (function [ x; y ] -> op x y | _ -> assert false) in
  match f with
  | True | False | Atom _ -> Eval.series tr f
  | Not g -> one g (fun a -> Formula.Not a)
  | And (a, b) -> two a b (fun x y -> Formula.And (x, y))
  | Or (a, b) -> two a b (fun x y -> Formula.Or (x, y))
  | Implies (a, b) -> two a b (fun x y -> Formula.Implies (x, y))
  | Iff (a, b) -> two a b (fun x y -> Formula.Iff (x, y))
  | Prev g -> one g (fun a -> Formula.Prev a)
  | Once g -> one g (fun a -> Formula.Once a)
  | Hist g -> one g (fun a -> Formula.Hist a)
  | PrevFor (d, g) -> one g (fun a -> Formula.PrevFor (d, a))
  | OnceWithin (d, g) -> one g (fun a -> Formula.OnceWithin (d, a))
  | Rose g -> one g (fun a -> Formula.Rose a)
  | Next g -> one g (fun a -> Formula.Next a)
  | Eventually g -> one g (fun a -> Formula.Eventually a)
  | Always g -> one g (fun a -> Formula.Always a)

(* Word boundaries, uniform bitsets and the per-domain buffers: the same
   formulas over 2-3 traces of different lengths, run back to back on
   one domain, so a run reuses buffers a shorter or longer run left. *)
let prop_plan_across_words =
  QCheck.Test.make ~name:"fused plan ≡ references across 64-state words" ~count:150
    (QCheck.make
       ~print:(fun (fs, trs) ->
         Fmt.str "%a@ over %a states" (Fmt.list ~sep:Fmt.semi Formula.pp) fs
           (Fmt.list ~sep:Fmt.comma Fmt.int) (List.map Trace.length trs))
       QCheck.Gen.(
         pair
           (gen_formulas_over [ "f"; "u"; "i"; "c"; "g"; "m" ])
           (list_size (int_range 2 3) gen_long_trace)))
    (fun (fs, trs) -> List.for_all (agrees ~series:stepwise_series fs) trs)

(* ------------------------------------------------------------------ *)
(* Violations                                                           *)

let test_violation_intervals () =
  let ok = [| true; false; false; true; false; true |] in
  let ivs = Rtmon.Violation.of_series ~dt:0.001 ok in
  Alcotest.(check int) "two intervals" 2 (List.length ivs);
  let first = List.hd ivs in
  Alcotest.(check int) "start" 1 first.Rtmon.Violation.start_index;
  Alcotest.(check int) "length" 2 first.Rtmon.Violation.length;
  Alcotest.(check (float 1e-9)) "duration" 0.002 first.Rtmon.Violation.duration;
  Alcotest.(check (float 1e-9)) "total" 0.003 (Rtmon.Violation.total_duration ivs)

let test_violation_all_ok () =
  Alcotest.(check int) "no intervals" 0
    (List.length (Rtmon.Violation.of_series ~dt:1.0 [| true; true |]))

let test_overlap_window () =
  let iv start dur =
    {
      Rtmon.Violation.start_index = 0;
      length = 1;
      start_time = start;
      duration = dur;
    }
  in
  Alcotest.(check bool) "within window" true
    (Rtmon.Violation.overlap_within ~window:0.05 (iv 1.0 0.01) (iv 1.04 0.01));
  Alcotest.(check bool) "outside window" false
    (Rtmon.Violation.overlap_within ~window:0.05 (iv 1.0 0.01) (iv 1.2 0.01))

(* ------------------------------------------------------------------ *)
(* Hit / false positive / false negative classification                 *)

let iv start dur =
  { Rtmon.Violation.start_index = 0; length = 1; start_time = start; duration = dur }

let test_classification () =
  let r =
    Rtmon.Report.classify ~window:0.05
      ~goal:("G", "Vehicle", [ iv 1.0 0.01; iv 5.0 0.01 ])
      ~subgoals:
        [ ("G-A", "Arbiter", [ iv 1.01 0.01 ]); ("G-B", "CA", [ iv 9.0 0.01 ]) ]
      ()
  in
  Alcotest.(check int) "one hit" 1 r.Rtmon.Report.hits;
  Alcotest.(check int) "one false negative" 1 r.Rtmon.Report.false_negatives;
  Alcotest.(check int) "one false positive" 1 r.Rtmon.Report.false_positives

let test_classification_empty () =
  let r =
    Rtmon.Report.classify ~window:0.05 ~goal:("G", "V", []) ~subgoals:[] ()
  in
  Alcotest.(check int) "no hits" 0 r.Rtmon.Report.hits;
  Alcotest.(check int) "no FN" 0 r.Rtmon.Report.false_negatives;
  Alcotest.(check int) "no FP" 0 r.Rtmon.Report.false_positives

let prop_classification_conservation =
  (* Every goal violation is a hit or a false negative; every subgoal
     violation is a hit or a false positive. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6) (map (fun t -> iv (float_of_int t) 0.01) (int_range 0 20)))
        (list_size (int_range 0 6) (map (fun t -> iv (float_of_int t) 0.01) (int_range 0 20))))
  in
  QCheck.Test.make ~name:"classification partitions violations" ~count:200
    (QCheck.make gen) (fun (givs, sivs) ->
      let r =
        Rtmon.Report.classify ~window:0.5 ~goal:("G", "V", givs)
          ~subgoals:[ ("S", "A", sivs) ]
          ()
      in
      let goal_hits =
        List.length
          (List.filter
             (fun (e : Rtmon.Report.entry) ->
               e.Rtmon.Report.goal_name = "G" && e.Rtmon.Report.outcome = Rtmon.Report.Hit)
             r.Rtmon.Report.entries)
      in
      goal_hits + r.Rtmon.Report.false_negatives = List.length givs
      && List.length r.Rtmon.Report.entries = List.length givs + List.length sivs)

let () =
  Alcotest.run "rtmon"
    [
      ( "incremental",
        [
          QCheck_alcotest.to_alcotest prop_incremental_equals_reference;
          QCheck_alcotest.to_alcotest prop_purity;
          Alcotest.test_case "rejects future operators" `Quick test_rejects_future;
          Alcotest.test_case "invariant stripping" `Quick test_invariant_stripping;
        ] );
      ( "plan",
        [
          QCheck_alcotest.to_alcotest prop_plan_equals_reference;
          Alcotest.test_case "per-formula fallback" `Quick test_plan_fallback;
          QCheck_alcotest.to_alcotest prop_plan_across_words;
        ] );
      ( "violations",
        [
          Alcotest.test_case "interval extraction" `Quick test_violation_intervals;
          Alcotest.test_case "all satisfied" `Quick test_violation_all_ok;
          Alcotest.test_case "overlap window" `Quick test_overlap_window;
        ] );
      ( "classification",
        [
          Alcotest.test_case "hit/FN/FP" `Quick test_classification;
          Alcotest.test_case "empty" `Quick test_classification_empty;
          QCheck_alcotest.to_alcotest prop_classification_conservation;
        ] );
    ]
