(** Pure incremental monitors for the past-time fragment.

    One compiler, {!plan}, hash-conses the invariant bodies of any number of
    formulas into one topologically ordered op program with one memory slot
    per distinct temporal subformula. The same program drives the fused
    production runner ({!run}), the per-formula runners ({!run_trace},
    {!run_trace_status}) and the finite product construction of the model
    checker ({!Mc.Checker}, through {!create} and {!step}).

    Equivalence with the reference semantics {!Tl.Eval.eval} is established by
    the property tests in [test/test_rtmon.ml]. *)

open Tl

type op =
  | OTrue
  | OFalse
  | OAtom of int  (** index into the plan's atom table *)
  | ONot of int
  | OAnd of int * int
  | OOr of int * int
  | OImplies of int * int
  | OIff of int * int
  | OPrev of int * int  (** child, memory slot holding child's previous value *)
  | OOnce of int * int
  | OHist of int * int
  | OPrevFor of int * int * int  (** child, k states, slot: run length capped at k *)
  | OOnceWithin of int * int * int  (** child, k states, slot: age capped at k *)
  | ORose of int * int  (** child, slot: 2 = no previous state, else prev value *)

type plan = {
  dt : float;
  formulas : Formula.t array;
  ops : op array;  (** every op follows its children *)
  atoms : Formula.atom array;  (** the distinct atoms [OAtom] reads *)
  init_mem : int array;  (** one slot per distinct temporal op *)
  roots : int array;  (** the body op of each formula *)
  deps : int array array;  (** per formula: the ops its root reads, ascending *)
  vars : string array;  (** every state variable of the plan *)
  fvars : int list array;  (** per formula: its variables, ascending indices *)
}

exception Not_monitorable of string

let children = function
  | OTrue | OFalse | OAtom _ -> []
  | ONot c
  | OPrev (c, _)
  | OOnce (c, _)
  | OHist (c, _)
  | OPrevFor (c, _, _)
  | OOnceWithin (c, _, _)
  | ORose (c, _) ->
      [ c ]
  | OAnd (a, b) | OOr (a, b) | OImplies (a, b) | OIff (a, b) -> [ a; b ]

(* The ops reachable from [roots], in ascending (evaluation) order. *)
let reachable ops roots =
  let live = Array.make (Array.length ops) false in
  let rec mark k =
    if not live.(k) then begin
      live.(k) <- true;
      List.iter mark (children ops.(k))
    end
  in
  List.iter mark roots;
  let acc = ref [] in
  for k = Array.length ops - 1 downto 0 do
    if live.(k) then acc := k :: !acc
  done;
  Array.of_list !acc

(** [plan ~dt fs] compiles the past-time formulas [fs] into one program. A
    top-level [Always] is stripped (invariant monitoring evaluates the body
    at every state). Equal subformulas share one op, equal temporal
    subformulas one memory slot.
    @raise Not_monitorable if a future operator remains. *)
let plan ~dt (formulas : Formula.t list) : plan =
  let ops = ref [] and nops = ref 0 and mem = ref [] and nmem = ref 0 in
  let op_ids = Hashtbl.create 256 in
  (* [shape] is the op with any slot set to -1; [make] builds the op the
     first time the shape is seen. *)
  let intern shape make =
    match Hashtbl.find_opt op_ids shape with
    | Some k -> k
    | None ->
        ops := make () :: !ops;
        incr nops;
        Hashtbl.add op_ids shape (!nops - 1);
        !nops - 1
  in
  let node op = intern op (fun () -> op) in
  let temporal shape init with_slot =
    intern shape (fun () ->
        mem := init :: !mem;
        incr nmem;
        with_slot (!nmem - 1))
  in
  (* Atoms are keyed by their exact bytes: structural equality would
     merge the constants [0.] and [-0.]. *)
  let atoms = ref [] and natoms = ref 0 and atom_ids = Hashtbl.create 64 in
  let atom a =
    let key = Marshal.to_string (a : Formula.atom) [ Marshal.No_sharing ] in
    match Hashtbl.find_opt atom_ids key with
    | Some id -> id
    | None ->
        atoms := a :: !atoms;
        incr natoms;
        Hashtbl.add atom_ids key (!natoms - 1);
        !natoms - 1
  in
  let rec go (f : Formula.t) =
    match f with
    | True -> node OTrue
    | False -> node OFalse
    | Atom a -> node (OAtom (atom a))
    | Not g -> node (ONot (go g))
    | And (a, b) ->
        let ca = go a in
        let cb = go b in
        node (OAnd (ca, cb))
    | Or (a, b) ->
        let ca = go a in
        let cb = go b in
        node (OOr (ca, cb))
    | Implies (a, b) ->
        let ca = go a in
        let cb = go b in
        node (OImplies (ca, cb))
    | Iff (a, b) ->
        let ca = go a in
        let cb = go b in
        node (OIff (ca, cb))
    | Prev g ->
        let c = go g in
        temporal (OPrev (c, -1)) 0 (fun s -> OPrev (c, s))
    | Once g ->
        let c = go g in
        temporal (OOnce (c, -1)) 0 (fun s -> OOnce (c, s))
    | Hist g ->
        let c = go g in
        temporal (OHist (c, -1)) 1 (fun s -> OHist (c, s))
    | PrevFor (d, g) ->
        let k = Trace.duration_to_states ~dt d in
        let c = go g in
        temporal (OPrevFor (c, k, -1)) 0 (fun s -> OPrevFor (c, k, s))
    | OnceWithin (d, g) ->
        let k = Trace.duration_to_states ~dt d in
        let c = go g in
        temporal (OOnceWithin (c, k, -1)) k (fun s -> OOnceWithin (c, k, s))
    | Rose g ->
        let c = go g in
        temporal (ORose (c, -1)) 2 (fun s -> ORose (c, s))
    | Next _ | Eventually _ | Always _ ->
        raise (Not_monitorable "nested future operator")
  in
  let body f =
    match Formula.invariant_body f with
    | Some b -> b
    | None ->
        raise
          (Not_monitorable
             (Fmt.str "formula contains future operators: %a" Formula.pp f))
  in
  let formulas = Array.of_list formulas in
  let roots = Array.map (fun f -> go (body f)) formulas in
  let ops = Array.of_list (List.rev !ops) in
  let vars = ref [] and nvars = ref 0 and var_ids = Hashtbl.create 64 in
  let var v =
    match Hashtbl.find_opt var_ids v with
    | Some x -> x
    | None ->
        vars := v :: !vars;
        incr nvars;
        Hashtbl.add var_ids v (!nvars - 1);
        !nvars - 1
  in
  let fvars =
    Array.map
      (fun f -> List.sort_uniq Int.compare (List.map var (Formula.vars f)))
      formulas
  in
  {
    dt;
    formulas;
    ops;
    atoms = Array.of_list (List.rev !atoms);
    init_mem = Array.of_list (List.rev !mem);
    roots;
    deps = Array.map (fun r -> reachable ops [ r ]) roots;
    vars = Array.of_list (List.rev !vars);
    fvars;
  }

let op_count p = Array.length p.ops
let slot_count p = Array.length p.init_mem

(* One transition of the ops listed in [code] at state [i], where
   [afuns.(a) i] is atom [a]'s truth. Memory updates in place: a slot
   belongs to one op, which reads it before overwriting it. *)
let exec ops code afuns v mem i =
  for j = 0 to Array.length code - 1 do
    let k = code.(j) in
    match ops.(k) with
    | OTrue -> v.(k) <- true
    | OFalse -> v.(k) <- false
    | OAtom a -> v.(k) <- afuns.(a) i
    | ONot c -> v.(k) <- not v.(c)
    | OAnd (a, b) -> v.(k) <- v.(a) && v.(b)
    | OOr (a, b) -> v.(k) <- v.(a) || v.(b)
    | OImplies (a, b) -> v.(k) <- (not v.(a)) || v.(b)
    | OIff (a, b) -> v.(k) <- v.(a) = v.(b)
    | OPrev (c, s) ->
        v.(k) <- mem.(s) = 1;
        mem.(s) <- (if v.(c) then 1 else 0)
    | OOnce (c, s) ->
        v.(k) <- mem.(s) = 1;
        if v.(c) then mem.(s) <- 1
    | OHist (c, s) ->
        v.(k) <- mem.(s) = 1;
        if not v.(c) then mem.(s) <- 0
    | OPrevFor (c, n, s) ->
        v.(k) <- mem.(s) >= n;
        mem.(s) <- (if v.(c) then min n (mem.(s) + 1) else 0)
    | OOnceWithin (c, n, s) ->
        v.(k) <- mem.(s) <= n - 1;
        mem.(s) <- (if v.(c) then 0 else min n (mem.(s) + 1))
    | ORose (c, s) ->
        v.(k) <- v.(c) && mem.(s) = 0;
        mem.(s) <- (if v.(c) then 1 else 0)
  done

(* ------------------------------------------------------------------ *)
(* Stepping over [State.t]: a one-formula plan whose memory vector is the
   model checker's product component. *)

type t = { p : plan; mem : int array }

let create ~dt f =
  let p = plan ~dt [ f ] in
  { p; mem = Array.copy p.init_mem }

(** Dynamic state alone, for use as a model-checking product component. *)
let mem t = t.mem

let with_mem t mem = { t with mem }

(** [step t state] evaluates one state transition, returning the formula's
    truth value in [state] and the successor monitor. The input monitor is not
    mutated. *)
let step (t : t) (state : State.t) : bool * t =
  let p = t.p in
  let afuns = Array.map (fun a _ -> Eval.eval_atom state a) p.atoms in
  let v = Array.make (Array.length p.ops) false in
  let mem = Array.copy t.mem in
  exec p.ops p.deps.(0) afuns v mem 0;
  (v.(p.roots.(0)), { t with mem })

(* ------------------------------------------------------------------ *)
(* Columnar atoms: compile every atom against one trace's typed columns
   ({!Tl.Trace.column}), so the per-state loop reads unboxed cells
   directly instead of materializing a [State.t] map per state and
   searching it per atom. Compilation refuses (returns [None]) whenever
   the column types cannot {e prove} the compiled reader equivalent to
   [Eval.eval_atom] over the materialized state — mixed-type columns,
   ordered comparisons over non-numeric terms, and (in [strict] mode,
   used where the slow path would raise [State.Unbound]) partially-present
   columns. Refusal falls back to the reference per-state path, never to
   different semantics; the QCheck property tests against {!Tl.Eval}
   exercise both paths. *)

(* A term compiled to a typed per-state reader. [TNum] readers return
   exactly [Value.to_float (Term.eval state t)]; likewise for the other
   shapes. *)
type tterm =
  | TNum of (int -> float)
  | TSym of (int -> string)
  | TBool of (int -> bool)

let rec typed_term ~strict tr (t : Term.t) : tterm option =
  let num t =
    match typed_term ~strict tr t with Some (TNum f) -> Some f | _ -> None
  in
  let arith op a b =
    match (num a, num b) with
    | Some fa, Some fb -> Some (TNum (fun i -> op (fa i) (fb i)))
    | _ -> None
  in
  match t with
  | Term.Var v -> (
      match Trace.column tr v with
      | Some (col, pres) when (not strict) || pres = None -> (
          match col with
          | Trace.CCol (Value.Float f) -> Some (TNum (fun _ -> f))
          | Trace.CCol (Value.Int n) ->
              let f = float_of_int n in
              Some (TNum (fun _ -> f))
          | Trace.CCol (Value.Bool b) -> Some (TBool (fun _ -> b))
          | Trace.CCol (Value.Sym s) -> Some (TSym (fun _ -> s))
          | Trace.FCol a -> Some (TNum (fun i -> Float.Array.get a i))
          | Trace.ICol a -> Some (TNum (fun i -> float_of_int a.(i)))
          | Trace.BCol b -> Some (TBool (fun i -> Bytes.get b i = '\001'))
          | Trace.SCol { values; ids } ->
              let strs =
                Array.map
                  (function Value.Sym s -> s | _ -> assert false)
                  values
              in
              Some (TSym (fun i -> strs.(Char.code (Bytes.get ids i))))
          | Trace.VCol _ -> None)
      | _ -> None)
  | Term.Const (Value.Float f) -> Some (TNum (fun _ -> f))
  | Term.Const (Value.Int n) ->
      let f = float_of_int n in
      Some (TNum (fun _ -> f))
  | Term.Const (Value.Bool b) -> Some (TBool (fun _ -> b))
  | Term.Const (Value.Sym s) -> Some (TSym (fun _ -> s))
  | Term.Neg t -> (
      match num t with Some f -> Some (TNum (fun i -> -.f i)) | None -> None)
  | Term.Abs t -> (
      match num t with
      | Some f -> Some (TNum (fun i -> Float.abs (f i)))
      | None -> None)
  | Term.Add (a, b) -> arith ( +. ) a b
  | Term.Sub (a, b) -> arith ( -. ) a b
  | Term.Mul (a, b) -> arith ( *. ) a b
  | Term.Div (a, b) -> arith ( /. ) a b
  | Term.Min (a, b) -> arith Float.min a b
  | Term.Max (a, b) -> arith Float.max a b

let compile_atom ~strict tr (a : Formula.atom) : (int -> bool) option =
  let typed t = typed_term ~strict tr t in
  (* [Value.equal] has numeric coercion, [String.equal] on symbols,
     structural equality on booleans, and is [false] across shapes. *)
  let equality x y =
    match (typed x, typed y) with
    | Some (TNum fx), Some (TNum fy) -> Some (fun i -> Float.equal (fx i) (fy i))
    | Some (TSym fx), Some (TSym fy) -> Some (fun i -> String.equal (fx i) (fy i))
    | Some (TBool fx), Some (TBool fy) -> Some (fun i -> fx i = fy i)
    | Some _, Some _ -> Some (fun _ -> false)
    | _ -> None
  in
  (* [Value.compare_num] raises [Type_error] on non-numeric values; only
     provably numeric terms compile, everything else falls back. *)
  let ordered op x y =
    match (typed x, typed y) with
    | Some (TNum fx), Some (TNum fy) ->
        Some (fun i -> op (Float.compare (fx i) (fy i)) 0)
    | _ -> None
  in
  match a with
  | Formula.Bvar v -> (
      match Trace.column tr v with
      | Some (Trace.BCol b, pres) when (not strict) || pres = None ->
          Some (fun i -> Bytes.get b i = '\001')
      | Some (Trace.CCol (Value.Bool b), pres) when (not strict) || pres = None ->
          Some (fun _ -> b)
      | _ -> None)
  | Formula.Eq (x, y) -> equality x y
  | Formula.Ne (x, y) ->
      Option.map (fun f i -> not (f i)) (equality x y)
  | Formula.Lt (x, y) -> ordered ( < ) x y
  | Formula.Le (x, y) -> ordered ( <= ) x y
  | Formula.Gt (x, y) -> ordered ( > ) x y
  | Formula.Ge (x, y) -> ordered ( >= ) x y

(* Every atom of a one-formula plan bound to the trace, or [None] if any
   refuses. *)
let bind_all ~strict tr p =
  let readers = Array.map (compile_atom ~strict tr) p.atoms in
  if Array.for_all Option.is_some readers then Some (Array.map Option.get readers)
  else None

(** [run_trace f trace] — truth value of [f]'s invariant body at every
    state, computed incrementally. Agrees with
    [Tl.Eval.series trace (invariant_body f)]. *)
let run_trace f (trace : Trace.t) : bool array =
  let p = plan ~dt:(Trace.dt trace) [ f ] in
  let root = p.roots.(0) in
  let n = Trace.length trace in
  let out = Array.make n true in
  (* Strict binding: the reference path raises [State.Unbound] on a
     missing variable, so only fully-present columns may fast-path. *)
  (match bind_all ~strict:true trace p with
  | Some afuns ->
      let v = Array.make (Array.length p.ops) false in
      let mem = Array.copy p.init_mem in
      for i = 0 to n - 1 do
        exec p.ops p.deps.(0) afuns v mem i;
        out.(i) <- v.(root)
      done
  | None ->
      let rec go i t =
        if i < n then begin
          let ok, t' = step t (Trace.get trace i) in
          out.(i) <- ok;
          go (i + 1) t'
        end
      in
      go 0 { p; mem = Array.copy p.init_mem });
  out

(* ------------------------------------------------------------------ *)
(* Degradation-aware monitoring: under runtime faults (dropout, NaN) a
   monitor's inputs can be missing or garbage. Rather than silently
   classifying over garbage, the three-valued runners report [Inhibited]
   for such states — the monitor knows it cannot judge. *)

type status = Pass | Fail | Inhibited

(** A value a monitor must refuse to judge on. *)
let degraded = function Value.Float f -> Float.is_nan f | _ -> false

(** [inhibited state vars] — is any monitored input missing or NaN? *)
let inhibited state vars =
  List.exists
    (fun v ->
      match State.find_opt v state with None -> true | Some x -> degraded x)
    vars

(* Where variable [v] is absent or NaN, or [None] when it never is. Only
   float-bearing columns can hold a NaN, and a constant NaN column marks
   every state; a cell is read only where it is present. *)
let degraded_mask tr n v =
  let of_pred bad =
    let m = Bytes.make n '\000' and any = ref false in
    for i = 0 to n - 1 do
      if bad i then begin
        Bytes.set m i '\001';
        any := true
      end
    done;
    if !any then Some m else None
  in
  match Trace.column tr v with
  | None -> of_pred (fun _ -> true)
  | Some (col, pres) -> (
      let absent = Option.map (fun p i -> Bytes.get p i <> '\001') pres in
      let nan =
        match col with
        | Trace.CCol x when degraded x -> Some (fun _ -> true)
        | Trace.FCol a -> Some (fun i -> Float.is_nan (Float.Array.get a i))
        | Trace.VCol a -> Some (fun i -> degraded a.(i))
        | _ -> None
      in
      match (absent, nan) with
      | None, None -> None
      | Some a, None | None, Some a -> of_pred a
      | Some a, Some b -> of_pred (fun i -> a i || b i))

(** [run_trace_status f trace] — three-valued verdict per state: the
    per-monitor reference for {!run}.

    A state is [Inhibited] when any state variable of [f] is missing or
    NaN. The monitor's memory is {e frozen} across inhibited states — it
    resumes from its pre-fault state rather than absorbing garbage. *)
let run_trace_status f (trace : Trace.t) : status array =
  let vars = Formula.vars f in
  let n = Trace.length trace in
  let out = Array.make n Pass in
  let p = plan ~dt:(Trace.dt trace) [ f ] in
  let root = p.roots.(0) in
  (match bind_all ~strict:false trace p with
  | Some afuns ->
      let masks = List.filter_map (degraded_mask trace n) vars in
      let inh i = List.exists (fun m -> Bytes.get m i <> '\000') masks in
      let v = Array.make (Array.length p.ops) false in
      let mem = Array.copy p.init_mem in
      for i = 0 to n - 1 do
        if inh i then out.(i) <- Inhibited (* memory frozen *)
        else begin
          exec p.ops p.deps.(0) afuns v mem i;
          out.(i) <- (if v.(root) then Pass else Fail)
        end
      done
  | None ->
      let rec go i t =
        if i < n then begin
          let state = Trace.get trace i in
          if inhibited state vars then begin
            out.(i) <- Inhibited;
            go (i + 1) t (* memory frozen *)
          end
          else begin
            let ok, t' = step t state in
            out.(i) <- (if ok then Pass else Fail);
            go (i + 1) t'
          end
        end
      in
      go 0 { p; mem = Array.copy p.init_mem });
  out

(** Violation intervals of a status series (maximal [Fail] runs). *)
let fails ~dt status =
  Violation.runs ~dt (Array.length status) (fun i -> status.(i) = Fail)

(** Inhibition intervals of a status series (maximal [Inhibited] runs). *)
let inhibitions ~dt status =
  Violation.runs ~dt (Array.length status) (fun i -> status.(i) = Inhibited)

(* ------------------------------------------------------------------ *)
(* The fused runner. Per trace: bind each distinct atom once, compute one
   absent-or-NaN mask per variable, and group the formulas by the set of
   their variables that are ever degraded — a fault-free trace is one
   group. Each group runs the ops its formulas read once per state, with
   memory frozen on the group's inhibited states, and appends intervals
   as it goes. A formula with an atom that refuses to bind runs alone
   through [run_trace_status]. *)

type verdict = {
  violations : Violation.interval list;
  inhibited : Violation.interval list;
}

(* Run the formulas [members] of one group over [n] states, inhibited
   where [mask] is set, writing each one's verdict into [out]. *)
let run_group p afuns ~dt ~n ~mask members out =
  let members = Array.of_list members in
  let roots = Array.map (fun j -> p.roots.(j)) members in
  let code = reachable p.ops (Array.to_list roots) in
  let m = Array.length members in
  let v = Array.make (Array.length p.ops) false in
  let mem = Array.copy p.init_mem in
  let fail_from = Array.make m (-1) and fails = Array.make m [] in
  let close_fail j i =
    let s = fail_from.(j) in
    if s >= 0 then begin
      fails.(j) <- Violation.make ~dt s (i - s) :: fails.(j);
      fail_from.(j) <- -1
    end
  in
  let inh_from = ref (-1) and inhs = ref [] in
  let close_inh i =
    if !inh_from >= 0 then begin
      inhs := (!inh_from, i - !inh_from) :: !inhs;
      inh_from := -1
    end
  in
  let inhibited =
    match mask with
    | None -> fun _ -> false
    | Some b -> fun i -> Bytes.get b i <> '\000'
  in
  for i = 0 to n - 1 do
    if inhibited i then begin
      if !inh_from < 0 then begin
        inh_from := i;
        for j = 0 to m - 1 do
          close_fail j i
        done
      end
    end
    else begin
      close_inh i;
      exec p.ops code afuns v mem i;
      for j = 0 to m - 1 do
        if v.(roots.(j)) then begin
          if fail_from.(j) >= 0 then close_fail j i
        end
        else if fail_from.(j) < 0 then fail_from.(j) <- i
      done
    end
  done;
  close_inh n;
  for j = 0 to m - 1 do
    close_fail j n;
    out.(members.(j)) <-
      {
        violations = List.rev fails.(j);
        inhibited = List.rev_map (fun (s, len) -> Violation.make ~dt s len) !inhs;
      }
  done

let rec run p (trace : Trace.t) : verdict array =
  let dt = Trace.dt trace in
  if not (Float.equal dt p.dt) then run (plan ~dt (Array.to_list p.formulas)) trace
  else begin
    let n = Trace.length trace in
    let readers = Array.map (compile_atom ~strict:false trace) p.atoms in
    let masks = Array.map (degraded_mask trace n) p.vars in
    let bound j =
      Array.for_all
        (fun k -> match p.ops.(k) with OAtom a -> Option.is_some readers.(a) | _ -> true)
        p.deps.(j)
    in
    let out = Array.make (Array.length p.formulas) { violations = []; inhibited = [] } in
    let groups = Hashtbl.create 4 in
    Array.iteri
      (fun j f ->
        if bound j then begin
          let key = List.filter (fun x -> Option.is_some masks.(x)) p.fvars.(j) in
          let members = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (j :: members)
        end
        else begin
          let status = run_trace_status f trace in
          out.(j) <- { violations = fails ~dt status; inhibited = inhibitions ~dt status }
        end)
      p.formulas;
    let afuns =
      Array.map (function Some f -> f | None -> fun _ -> assert false) readers
    in
    Hashtbl.iter
      (fun key members ->
        let mask =
          match List.filter_map (fun x -> masks.(x)) key with
          | [] -> None
          | [ m ] -> Some m
          | ms ->
              Some
                (Bytes.init n (fun i ->
                     if List.exists (fun m -> Bytes.get m i <> '\000') ms then '\001'
                     else '\000'))
        in
        run_group p afuns ~dt ~n ~mask (List.rev members) out)
      groups;
    out
  end
