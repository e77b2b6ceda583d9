(** Unit and property tests for the temporal logic substrate. *)

open Tl

let state bindings = State.of_list bindings
let b v = Value.Bool v
let f v = Value.Float v

let bool_trace ~dt var values =
  Trace.make ~dt (List.map (fun x -> state [ (var, b x) ]) values)

(* ------------------------------------------------------------------ *)
(* Values and states                                                    *)

let test_value_equal () =
  Alcotest.(check bool) "int/float coercion" true (Value.equal (Value.Int 1) (f 1.));
  Alcotest.(check bool) "sym equality" true (Value.equal (Value.Sym "A") (Value.Sym "A"));
  Alcotest.(check bool) "bool vs int" false (Value.equal (b true) (Value.Int 1));
  Alcotest.(check bool) "compare_num" true (Value.compare_num (Value.Int 2) (f 2.5) < 0)

let test_value_errors () =
  Alcotest.check_raises "to_float of sym" (Value.Type_error "expected a number, got 'X'")
    (fun () -> ignore (Value.to_float (Value.Sym "X")));
  Alcotest.check_raises "unbound variable" (State.Unbound "missing") (fun () ->
      ignore (State.get State.empty "missing"))

let test_state_ops () =
  let s = state [ ("a", b true); ("x", f 2.) ] in
  Alcotest.(check bool) "bool get" true (State.bool s "a");
  Alcotest.(check (float 0.)) "float get" 2. (State.float s "x");
  let s' = State.set "x" (f 3.) s in
  Alcotest.(check (float 0.)) "update" 3. (State.float s' "x");
  Alcotest.(check (float 0.)) "immutability" 2. (State.float s "x");
  Alcotest.(check bool) "equal" false (State.equal s s');
  Alcotest.(check int) "compare consistent" 0 (State.compare s s)

(* ------------------------------------------------------------------ *)
(* Terms                                                                *)

let test_term_eval () =
  let s = state [ ("x", f 2.); ("y", f (-3.)) ] in
  let e t = Value.to_float (Term.eval s t) in
  Alcotest.(check (float 1e-9)) "add" (-1.) (e (Term.Add (Term.var "x", Term.var "y")));
  Alcotest.(check (float 1e-9)) "abs" 3. (e (Term.Abs (Term.var "y")));
  Alcotest.(check (float 1e-9)) "mul" (-6.) (e (Term.Mul (Term.var "x", Term.var "y")));
  Alcotest.(check (float 1e-9)) "min" (-3.) (e (Term.Min (Term.var "x", Term.var "y")));
  Alcotest.(check (list string)) "vars" [ "x"; "y" ]
    (Term.vars (Term.Sub (Term.var "x", Term.var "y")))

(* ------------------------------------------------------------------ *)
(* Formula structure                                                    *)

let test_smart_constructors () =
  Alcotest.(check bool) "and true" true (Formula.and_ Formula.tt (Formula.bvar "a") = Formula.bvar "a");
  Alcotest.(check bool) "or false" true (Formula.or_ Formula.ff (Formula.bvar "a") = Formula.bvar "a");
  Alcotest.(check bool) "not not" true (Formula.not_ (Formula.not_ (Formula.bvar "a")) = Formula.bvar "a");
  Alcotest.(check bool) "conj []" true (Formula.conj [] = Formula.tt);
  Alcotest.(check bool) "disj []" true (Formula.disj [] = Formula.ff)

let test_vars_and_refs () =
  let phi =
    Formula.entails
      (Formula.prev (Formula.bvar "p"))
      (Formula.and_ (Formula.bvar "q") (Formula.once_within 1.0 (Formula.bvar "r")))
  in
  Alcotest.(check (list string)) "vars" [ "p"; "q"; "r" ] (Formula.vars phi);
  (* temporal references are taken of the invariant body: the top-level □ of
     an entailment would otherwise put everything in a Future context *)
  let body = Option.get (Formula.invariant_body phi) in
  let refs = Formula.var_refs body in
  Alcotest.(check bool) "p past" true (List.mem ("p", Formula.Past) refs);
  Alcotest.(check bool) "q present" true (List.mem ("q", Formula.Present) refs);
  Alcotest.(check bool) "r past" true (List.mem ("r", Formula.Past) refs)

let test_future_detection () =
  Alcotest.(check bool) "eventually has future" true
    (Formula.has_future (Formula.eventually (Formula.bvar "a")));
  Alcotest.(check bool) "past only" false
    (Formula.has_future (Formula.prev (Formula.once (Formula.bvar "a"))));
  Alcotest.(check bool) "invariant body strips top always" true
    (Formula.invariant_body (Formula.always (Formula.bvar "a")) = Some (Formula.bvar "a"));
  Alcotest.(check bool) "nested future rejected" true
    (Formula.invariant_body (Formula.always (Formula.next (Formula.bvar "a"))) = None)

let test_rename_subst () =
  let phi = Formula.implies (Formula.bvar "a") (Formula.le (Term.var "x") (Term.float 1.)) in
  let phi' = Formula.rename (fun v -> if v = "x" then "y" else v) phi in
  Alcotest.(check (list string)) "renamed" [ "a"; "y" ] (Formula.vars phi');
  let psi = Formula.subst (Formula.bvar "a") (Formula.bvar "b") phi in
  Alcotest.(check (list string)) "substituted" [ "b"; "x" ] (Formula.vars psi)

let test_pretty () =
  let phi = Formula.entails (Formula.prev (Formula.bvar "A")) (Formula.bvar "B") in
  Alcotest.(check string) "entailment rendering" "●A ⇒ B" (Formula.to_string phi)

(* ------------------------------------------------------------------ *)
(* Trace and reference semantics                                        *)

let test_duration_to_states () =
  Alcotest.(check int) "exact" 500 (Trace.duration_to_states ~dt:0.001 0.5);
  Alcotest.(check int) "round up" 3 (Trace.duration_to_states ~dt:1.0 2.5);
  Alcotest.(check int) "minimum one" 1 (Trace.duration_to_states ~dt:1.0 0.)

let test_prev_semantics () =
  let tr = bool_trace ~dt:1.0 "p" [ true; false; true ] in
  let prev_p = Formula.prev (Formula.bvar "p") in
  Alcotest.(check bool) "prev at 0 is false" false (Eval.eval tr 0 prev_p);
  Alcotest.(check bool) "prev at 1" true (Eval.eval tr 1 prev_p);
  Alcotest.(check bool) "prev at 2" false (Eval.eval tr 2 prev_p)

let test_once_hist () =
  let tr = bool_trace ~dt:1.0 "p" [ false; true; false; false ] in
  let once_p = Formula.once (Formula.bvar "p") in
  let hist_p = Formula.hist (Formula.bvar "p") in
  Alcotest.(check bool) "once strictly previous at 1" false (Eval.eval tr 1 once_p);
  Alcotest.(check bool) "once at 2" true (Eval.eval tr 2 once_p);
  Alcotest.(check bool) "hist vacuous at 0" true (Eval.eval tr 0 hist_p);
  Alcotest.(check bool) "hist at 2 false" false (Eval.eval tr 2 hist_p)

let test_prev_for () =
  let tr = bool_trace ~dt:1.0 "p" [ true; true; true; false; true ] in
  let pf = Formula.prev_for 2.0 (Formula.bvar "p") in
  Alcotest.(check bool) "insufficient history" false (Eval.eval tr 1 pf);
  Alcotest.(check bool) "held 2 states" true (Eval.eval tr 2 pf);
  Alcotest.(check bool) "held at 3" true (Eval.eval tr 3 pf);
  Alcotest.(check bool) "broken at 4" false (Eval.eval tr 4 pf)

let test_once_within () =
  let tr = bool_trace ~dt:1.0 "p" [ false; true; false; false; false ] in
  let ow = Formula.once_within 2.0 (Formula.bvar "p") in
  Alcotest.(check bool) "at 0 no history" false (Eval.eval tr 0 ow);
  Alcotest.(check bool) "at 2 within window" true (Eval.eval tr 2 ow);
  Alcotest.(check bool) "at 3 still within" true (Eval.eval tr 3 ow);
  Alcotest.(check bool) "at 4 expired" false (Eval.eval tr 4 ow)

let test_rose () =
  let tr = bool_trace ~dt:1.0 "p" [ true; true; false; true ] in
  let r = Formula.rose (Formula.bvar "p") in
  Alcotest.(check bool) "no edge in initial state" false (Eval.eval tr 0 r);
  Alcotest.(check bool) "no edge when held" false (Eval.eval tr 1 r);
  Alcotest.(check bool) "edge at 3" true (Eval.eval tr 3 r)

let test_future_ops () =
  let tr = bool_trace ~dt:1.0 "p" [ false; false; true ] in
  Alcotest.(check bool) "eventually" true (Eval.eval tr 0 (Formula.eventually (Formula.bvar "p")));
  Alcotest.(check bool) "always false" false (Eval.eval tr 0 (Formula.always (Formula.bvar "p")));
  Alcotest.(check bool) "always suffix" true (Eval.eval tr 2 (Formula.always (Formula.bvar "p")));
  Alcotest.(check bool) "next at end" false (Eval.eval tr 2 (Formula.next (Formula.bvar "p")))

let test_initially () =
  let tr = bool_trace ~dt:1.0 "p" [ true; false; false ] in
  let phi = Formula.always (Formula.initially (Formula.bvar "p")) in
  Alcotest.(check bool) "constrains only state 0" true (Eval.holds tr phi);
  let tr2 = bool_trace ~dt:1.0 "p" [ false; true ] in
  Alcotest.(check bool) "violated initial state" false (Eval.holds tr2 phi)

let test_signal_extraction () =
  let tr =
    Trace.make ~dt:0.5
      [ state [ ("x", f 1.) ]; state [ ("x", f 2.) ]; state [ ("x", f 3.) ] ]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "signal"
    [ (0., 1.); (0.5, 2.); (1.0, 3.) ]
    (Trace.signal tr "x")

(* ------------------------------------------------------------------ *)
(* Property tests: semantic laws of the reference evaluator             *)

let gen_formula vars =
  let open QCheck.Gen in
  let base = map (fun v -> Formula.bvar v) (oneofl vars) in
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
               (1, map2 (fun a b -> Formula.Implies (a, b)) (self (n / 2)) (self (n / 2)));
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

let vars3 = [ "p"; "q"; "r" ]

let gen_trace =
  let open QCheck.Gen in
  let gen_state =
    map
      (fun bits ->
        state (List.mapi (fun i v -> (v, b (List.nth bits i))) vars3))
      (list_repeat 3 QCheck.Gen.bool)
  in
  map (fun ss -> Trace.make ~dt:1.0 ss) (list_size (int_range 1 8) gen_state)

let arb_formula =
  QCheck.make ~print:(fun f -> Formula.to_string f) (gen_formula vars3)

let arb_trace =
  QCheck.make
    ~print:(fun tr ->
      String.concat ";"
        (List.rev
           (Trace.fold (fun acc s -> Fmt.str "%a" State.pp s :: acc) [] tr)))
    gen_trace

let prop_negation_duality =
  QCheck.Test.make ~name:"¬◆¬p ≡ ■p at every index" ~count:200
    (QCheck.pair arb_formula arb_trace)
    (fun (phi, tr) ->
      let lhs = Formula.not_ (Formula.once (Formula.not_ phi)) in
      let rhs = Formula.hist phi in
      List.for_all
        (fun i -> Eval.eval tr i lhs = Eval.eval tr i rhs)
        (List.init (Trace.length tr) Fun.id))

let prop_rose_definition =
  QCheck.Test.make ~name:"@p ≡ ●¬p ∧ p" ~count:200
    (QCheck.pair arb_formula arb_trace)
    (fun (phi, tr) ->
      let lhs = Formula.rose phi in
      let rhs = Formula.and_ (Formula.prev (Formula.not_ phi)) phi in
      List.for_all
        (fun i -> Eval.eval tr i lhs = Eval.eval tr i rhs)
        (List.init (Trace.length tr) Fun.id))

let prop_prev_for_one =
  QCheck.Test.make ~name:"●[<1state]p ≡ ●p" ~count:200
    (QCheck.pair arb_formula arb_trace)
    (fun (phi, tr) ->
      List.for_all
        (fun i ->
          Eval.eval tr i (Formula.prev_for 1.0 phi) = Eval.eval tr i (Formula.prev phi))
        (List.init (Trace.length tr) Fun.id))

let prop_entails_is_always_implies =
  QCheck.Test.make ~name:"P ⇒ Q holds iff P→Q at every state" ~count:200
    (QCheck.triple arb_formula arb_formula arb_trace)
    (fun (p, q, tr) ->
      Eval.holds tr (Formula.entails p q)
      = List.for_all
          (fun i -> Eval.eval tr i (Formula.implies p q))
          (List.init (Trace.length tr) Fun.id))

(* Rows with gaps (a variable absent, then present again), type changes
   and one-value runs: [Trace.get] returns every row exactly, and the same
   rows fed as frames pack to the same bytes. *)
let prop_trace_roundtrip =
  let open QCheck.Gen in
  let names = [| "x"; "y"; "z" |] in
  let value =
    oneofl
      [
        Value.Float 0.; Value.Float (-0.); Value.Float Float.nan; Value.Float 2.5;
        Value.Int 0; Value.Bool true; Value.Bool false; Value.Sym "a"; Value.Sym "b";
      ]
  in
  let row =
    map
      (fun cells ->
        State.of_list
          (List.filter_map Fun.id
             (List.mapi (fun i c -> Option.map (fun v -> (names.(i), v)) c) cells)))
      (list_repeat 3 (frequency [ (1, return None); (4, map Option.some value) ]))
  in
  let exact s s' =
    let cell = function
      | Value.Float x -> `F (Int64.bits_of_float x)
      | Value.Int i -> `I i
      | Value.Bool x -> `B x
      | Value.Sym x -> `S x
    in
    List.map (fun (k, v) -> (k, cell v)) (State.to_list s)
    = List.map (fun (k, v) -> (k, cell v)) (State.to_list s')
  in
  QCheck.Test.make ~name:"trace rows round-trip; frames pack like rows" ~count:500
    (QCheck.make
       ~print:(fun rows -> String.concat ";" (List.map (Fmt.str "%a" State.pp) rows))
       (list_size (int_range 1 12) row))
    (fun rows ->
      let tr = Trace.make ~dt:1.0 rows in
      let b = Trace.Builder.of_slots ~dt:1.0 names in
      List.iter (fun r -> Trace.Builder.add_frame b (Frame.of_state names r)) rows;
      List.for_all2 exact (List.init (Trace.length tr) (Trace.get tr)) rows
      && Marshal.to_string tr [] = Marshal.to_string (Trace.Builder.finish b) [])

(* The kernel's way of feeding [add_frame]: two frame buffers used in
   turn, each rewritten in place where its cells differ from the row to
   record. A cell is the previous row's block again (recorded lazily by
   the builder), a shared block, a fresh copy of an equal value, or
   absent; columns go absent and come back, change kind, and repeat one
   block for long enough to outgrow the builder's first capacity. The
   rows and the packed bytes must equal [add] fed the same states. *)
let prop_frames_reused_in_place =
  let open QCheck.Gen in
  let names = [| "x"; "y"; "z" |] in
  let shared =
    [|
      Value.Float 0.; Value.Float (-0.); Value.Float Float.nan;
      Value.Float (Int64.float_of_bits 0x7FF8_0000_0000_0002L); Value.Float 2.5;
      Value.Int 0; Value.Bool true; Value.Sym "a"; Value.Sym "b";
    |]
  in
  let fresh = function
    | Value.Float x -> Value.Float (Int64.float_of_bits (Int64.bits_of_float x))
    | Value.Int i -> Value.Int i
    | Value.Bool x -> Value.Bool x
    | Value.Sym s -> Value.Sym (String.sub s 0 (String.length s))
  in
  let cell =
    frequency
      [
        (12, return `Keep);
        (2, return `Absent);
        (3, map (fun i -> `Shared i) (int_bound (Array.length shared - 1)));
        (2, map (fun i -> `Fresh i) (int_bound (Array.length shared - 1)));
      ]
  in
  let show = function
    | `Keep -> "="
    | `Absent -> "-"
    | `Shared i -> Value.to_string shared.(i)
    | `Fresh i -> "new " ^ Value.to_string shared.(i)
  in
  QCheck.Test.make ~name:"frames reused in place pack like rows" ~count:500
    (QCheck.make
       ~print:(fun rows ->
         String.concat ";" (List.map (fun r -> String.concat "," (List.map show r)) rows))
       (list_size (int_range 1 80) (list_repeat 3 cell)))
    (fun rows ->
      let buffers = [| Frame.make 3; Frame.make 3 |] in
      let last = Frame.make 3 in
      let b = Trace.Builder.of_slots ~hint:1 ~dt:1.0 names in
      let states =
        List.mapi
          (fun i row ->
            let f = buffers.(i mod 2) in
            List.iteri
              (fun s c ->
                let v =
                  match c with
                  | `Keep -> last.(s)
                  | `Absent -> Frame.absent
                  | `Shared k -> shared.(k)
                  | `Fresh k -> fresh shared.(k)
                in
                last.(s) <- v;
                if f.(s) != v then f.(s) <- v)
              row;
            Trace.Builder.add_frame b f;
            Frame.to_state names f)
          rows
      in
      let tr = Trace.Builder.finish b in
      let reference = Trace.Builder.create ~dt:1.0 () in
      List.iter (Trace.Builder.add reference) states;
      let reference = Trace.Builder.finish reference in
      let bits s =
        List.map
          (fun (k, v) ->
            (k, match v with Value.Float x -> `F (Int64.bits_of_float x) | v -> `V v))
          (State.to_list s)
      in
      Trace.length tr = List.length rows
      && List.for_all2
           (fun i s -> bits (Trace.get tr i) = bits s)
           (List.init (Trace.length tr) Fun.id)
           states
      && Marshal.to_string tr [] = Marshal.to_string reference [])

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_trace_roundtrip;
      prop_negation_duality;
      prop_rose_definition;
      prop_prev_for_one;
      prop_entails_is_always_implies;
      prop_frames_reused_in_place;
    ]

let () =
  Alcotest.run "tl"
    [
      ( "value-state",
        [
          Alcotest.test_case "value equality" `Quick test_value_equal;
          Alcotest.test_case "type errors" `Quick test_value_errors;
          Alcotest.test_case "state operations" `Quick test_state_ops;
        ] );
      ("term", [ Alcotest.test_case "arithmetic" `Quick test_term_eval ]);
      ( "formula",
        [
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
          Alcotest.test_case "vars and temporal refs" `Quick test_vars_and_refs;
          Alcotest.test_case "future detection" `Quick test_future_detection;
          Alcotest.test_case "rename and subst" `Quick test_rename_subst;
          Alcotest.test_case "pretty printing" `Quick test_pretty;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "duration to states" `Quick test_duration_to_states;
          Alcotest.test_case "prev" `Quick test_prev_semantics;
          Alcotest.test_case "once and hist" `Quick test_once_hist;
          Alcotest.test_case "prev_for" `Quick test_prev_for;
          Alcotest.test_case "once_within" `Quick test_once_within;
          Alcotest.test_case "rose" `Quick test_rose;
          Alcotest.test_case "future operators" `Quick test_future_ops;
          Alcotest.test_case "initially" `Quick test_initially;
          Alcotest.test_case "signal extraction" `Quick test_signal_extraction;
        ] );
      ("laws", props);
    ]
