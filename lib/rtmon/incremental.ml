(** Pure incremental monitors for the past-time fragment.

    One compiler, {!plan}, hash-conses the invariant bodies of any number of
    formulas into one topologically ordered op program with one memory slot
    per distinct temporal subformula. The same program drives the fused
    production runner ({!run}, a column at a time), the per-formula
    runners ({!run_trace}, {!run_trace_status}) and the finite product
    construction of the model checker ({!Mc.Checker}, through {!create}
    and {!step}); the last two step it a state at a time ([exec]), the
    reference for {!run}.

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
  avars : string list array;  (** per atom: its variables *)
  pure : bool array;  (** per op: no temporal op beneath it *)
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
  let atoms = Array.of_list (List.rev !atoms) in
  let pure = Array.make (Array.length ops) true in
  Array.iteri
    (fun k op ->
      pure.(k) <-
        (match op with
        | OPrev _ | OOnce _ | OHist _ | OPrevFor _ | OOnceWithin _ | ORose _ -> false
        | _ -> List.for_all (fun c -> pure.(c)) (children op)))
    ops;
  {
    dt;
    formulas;
    ops;
    atoms;
    init_mem = Array.of_list (List.rev !mem);
    roots;
    deps = Array.map (fun r -> reachable ops [ r ]) roots;
    vars = Array.of_list (List.rev !vars);
    fvars;
    avars = Array.map Formula.atom_vars atoms;
    pure;
  }

let op_count p = Array.length p.ops
let slot_count p = Array.length p.init_mem

(* A temporal op at one judged state: its value from its memory [m] and
   its child's value [c] there, and its memory after the state. *)
let temporal_value op c m =
  match op with
  | OPrev _ | OOnce _ | OHist _ -> m = 1
  | OPrevFor (_, n, _) -> m >= n
  | OOnceWithin (_, n, _) -> m <= n - 1
  | ORose _ -> c && m = 0
  | _ -> invalid_arg "temporal_value"

let temporal_next op c m =
  match op with
  | OPrev _ | ORose _ -> if c then 1 else 0
  | OOnce _ -> if c then 1 else m
  | OHist _ -> if c then m else 0
  | OPrevFor (_, n, _) -> if c then min n (m + 1) else 0
  | OOnceWithin (_, n, _) -> if c then 0 else min n (m + 1)
  | _ -> invalid_arg "temporal_next"

(* One transition of the ops listed in [code] at state [i], where
   [afuns.(a) i] is atom [a]'s truth: the state-at-a-time reference. A
   slot belongs to one op, which reads it before overwriting it. *)
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
    | ( OPrev (c, s)
      | OOnce (c, s)
      | OHist (c, s)
      | OPrevFor (c, _, s)
      | OOnceWithin (c, _, s)
      | ORose (c, s) ) as op ->
        let x = v.(c) and m = mem.(s) in
        v.(k) <- temporal_value op x m;
        mem.(s) <- temporal_next op x m
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

(* Where variable [v] may be absent or NaN, as a predicate over states,
   or [None] when no state can be. Only float-bearing columns can hold a
   NaN, and a constant NaN column marks every state; a cell is read only
   where it is present. *)
let degraded_pred tr v =
  match Trace.column tr v with
  | None -> Some (fun _ -> true)
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
      | Some a, None | None, Some a -> Some a
      | Some a, Some b -> Some (fun i -> a i || b i))

(* Where variable [v] is absent or NaN, one byte per state, or [None]
   when it never is. *)
let degraded_mask tr n v =
  match degraded_pred tr v with
  | None -> None
  | Some bad ->
      let m = Bytes.make n '\000' and any = ref false in
      for i = 0 to n - 1 do
        if bad i then begin
          Bytes.set m i '\001';
          any := true
        end
      done;
      if !any then Some m else None

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
(* The fused runner, a column at a time. Per trace: bind each distinct
   atom once, compute one absent-or-NaN mask per variable, and group the
   formulas by the set of their variables that are ever degraded — a
   fault-free trace is one group. Each op a group's formulas read is then
   computed once over all states, as a constant or as a bitset:
   constants fold through the connectives, bitsets combine a word at a
   time, and only the temporal ops step state by state, over the group's
   judged states. Ops with no temporal op beneath them do not depend on
   the group and are shared by all groups. Intervals come from scanning
   bitsets. A formula with an atom that refuses to bind runs alone
   through [run_trace_status]. *)

type verdict = {
  violations : Violation.interval list;
  inhibited : Violation.interval list;
}

(* An op's value at every state of a trace: one truth value for all of
   them, or one bit per state, state [i] at bit [i mod 64] of the
   little-endian word [i / 64]. Bits at or past the trace length are
   unspecified: every reader stops at the length. *)
type column = Const of bool | Bits of Bytes.t

let c_true = Const true
let c_false = Const false
let const b = if b then c_true else c_false

(* The per-domain pool, reused across runs: bitset buffers handed out in
   order, all given back when the next run starts, and each op's column
   stamped with the run or group that computed it. Any buffer at least as
   long as the trace serves, so runs over traces of different lengths
   share buffers and a run allocates none once the pool is warm. *)
type pool = {
  mutable bufs : Bytes.t array;
  mutable used : int;  (** buffers handed out in this run *)
  mutable n : int;  (** the run's states *)
  mutable nbytes : int;  (** its bitset length: whole words *)
  mutable vals : column array;  (** per op *)
  mutable stamps : int array;  (** per op: who computed [vals] *)
  mutable clock : int;
}

let pool_key =
  Domain.DLS.new_key (fun () ->
      { bufs = [||]; used = 0; n = 0; nbytes = 0; vals = [||]; stamps = [||]; clock = 0 })

let tick pool =
  pool.clock <- pool.clock + 1;
  pool.clock

(* The run's next buffer, at least [nbytes] long. *)
let take pool =
  if pool.used = Array.length pool.bufs then begin
    let bufs = Array.make (max 64 (2 * pool.used)) Bytes.empty in
    Array.blit pool.bufs 0 bufs 0 pool.used;
    pool.bufs <- bufs
  end;
  let b = pool.bufs.(pool.used) in
  let b =
    if Bytes.length b >= pool.nbytes then b
    else begin
      let b = Bytes.create pool.nbytes in
      pool.bufs.(pool.used) <- b;
      b
    end
  in
  pool.used <- pool.used + 1;
  b

(* [b], the buffer taken last, as a column: a constant, giving [b] back,
   when its [n] bits agree. *)
let fold pool b =
  let n = pool.n in
  let full = n / 64 and zero = ref true and one = ref true in
  let w = ref 0 in
  while (!zero || !one) && !w < full do
    let x = Bytes.get_int64_le b (!w * 8) in
    if x <> 0L then zero := false;
    if x <> -1L then one := false;
    incr w
  done;
  let rest = n land 63 in
  if rest > 0 && (!zero || !one) then begin
    let m = Int64.(sub (shift_left 1L rest) 1L) in
    let x = Int64.logand (Bytes.get_int64_le b (full * 8)) m in
    if x <> 0L then zero := false;
    if x <> m then one := false
  end;
  if !zero || !one then begin
    pool.used <- pool.used - 1;
    const (not !zero)
  end
  else Bits b

(* The column of [pred] over the run's states, eight states a byte. *)
let of_pred pool pred =
  let b = take pool and n = pool.n in
  for j = 0 to ((n + 7) / 8) - 1 do
    let base = j * 8 and acc = ref 0 in
    for s = 0 to min 7 (n - 1 - base) do
      if pred (base + s) then acc := !acc lor (1 lsl s)
    done;
    Bytes.set b j (Char.unsafe_chr !acc)
  done;
  fold pool b

let bit b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* A word-wise connective of two bitsets. *)
let words pool conn a b =
  let d = take pool in
  for w = 0 to ((pool.n + 63) / 64) - 1 do
    let o = w * 8 in
    let x = Bytes.get_int64_le a o and y = Bytes.get_int64_le b o in
    Bytes.set_int64_le d o
      (match conn with
      | `Not -> Int64.lognot x
      | `And -> Int64.logand x y
      | `Or -> Int64.logor x y
      | `Implies -> Int64.logor (Int64.lognot x) y
      | `Iff -> Int64.lognot (Int64.logxor x y))
  done;
  fold pool d

let c_not pool = function Const x -> const (not x) | Bits a -> words pool `Not a a

let c_and pool x y =
  match (x, y) with
  | Const false, _ | _, Const false -> c_false
  | Const true, z | z, Const true -> z
  | Bits a, Bits b -> words pool `And a b

let c_or pool x y =
  match (x, y) with
  | Const true, _ | _, Const true -> c_true
  | Const false, z | z, Const false -> z
  | Bits a, Bits b -> words pool `Or a b

let c_implies pool x y =
  match (x, y) with
  | Const false, _ | _, Const true -> c_true
  | Const true, z -> z
  | z, Const false -> c_not pool z
  | Bits a, Bits b -> words pool `Implies a b

let c_iff pool x y =
  match (x, y) with
  | Const true, z | z, Const true -> z
  | Const false, z | z, Const false -> c_not pool z
  | Bits a, Bits b -> words pool `Iff a b

(* A temporal op over the states [mask] leaves judged, with [exec]'s
   memory update; memory is frozen on the masked states, whose bits stay
   clear. *)
let temporal pool op child mask init =
  let n = pool.n in
  let d = take pool in
  Bytes.fill d 0 ((n + 7) / 8) '\000';
  let mem = ref init in
  for i = 0 to n - 1 do
    let masked = match mask with Const m -> m | Bits m -> bit m i in
    if not masked then begin
      let c = match child with Const c -> c | Bits b -> bit b i in
      if temporal_value op c !mem then
        Bytes.set d (i lsr 3)
          (Char.unsafe_chr (Char.code (Bytes.get d (i lsr 3)) lor (1 lsl (i land 7))));
      mem := temporal_next op c !mem
    end
  done;
  fold pool d

(* Atom [a]'s column: evaluated once when its variables each hold one
   value all run, read in a tight loop for the shapes Table 5.3 uses,
   and through its compiled [reader] otherwise. Each path computes
   exactly what [reader] would at every state. *)
let atom_column pool tr avars (a : Formula.atom) reader =
  let col v = Option.map fst (Trace.column tr v) in
  let one_value v = match col v with Some (Trace.CCol _) -> true | _ -> false in
  (* Per cell [x] of [xs]: [lt], [eq] or [gt] as [x] is below, equal to
     or above [c] by [Float.compare]. *)
  let sign xs c (lt, eq, gt) =
    of_pred pool (fun i ->
        let s = Float.compare (Float.Array.get xs i) c in
        if s < 0 then lt else if s > 0 then gt else eq)
  in
  let signs = function
    | Formula.Lt _ -> Some (true, false, false)
    | Le _ -> Some (true, true, false)
    | Gt _ -> Some (false, false, true)
    | Ge _ -> Some (false, true, true)
    | Eq _ -> Some (false, true, false)
    | Ne _ -> Some (true, false, true)
    | Bvar _ -> None
  in
  if List.for_all one_value avars then const (reader 0)
  else
    match a with
    | Bvar v -> (
        match col v with
        | Some (Trace.BCol b) -> of_pred pool (fun i -> Bytes.get b i = '\001')
        | _ -> of_pred pool reader)
    | Eq (Term.Var v, Term.Const (Value.Sym s))
    | Ne (Term.Var v, Term.Const (Value.Sym s)) -> (
        let eq = match a with Eq _ -> true | _ -> false in
        match col v with
        | Some (Trace.SCol { values; ids }) -> (
            let rec find k =
              if k = Array.length values then None
              else
                match values.(k) with
                | Value.Sym x when String.equal x s -> Some (Char.chr k)
                | _ -> find (k + 1)
            in
            match find 0 with
            | None -> const (not eq)
            | Some id -> of_pred pool (fun i -> Char.equal (Bytes.get ids i) id = eq))
        | _ -> of_pred pool reader)
    | Eq (Term.Var v, Term.Const c)
    | Ne (Term.Var v, Term.Const c)
    | Lt (Term.Var v, Term.Const c)
    | Le (Term.Var v, Term.Const c)
    | Gt (Term.Var v, Term.Const c)
    | Ge (Term.Var v, Term.Const c) -> (
        match (col v, c, signs a) with
        | Some (Trace.FCol x), Value.Float c, Some s -> sign x c s
        | Some (Trace.FCol x), Value.Int c, Some s -> sign x (float_of_int c) s
        | _ -> of_pred pool reader)
    | _ -> of_pred pool reader

(* Maximal runs of set states in a column. *)
let runs ~dt n = function
  | Const false -> []
  | Const true -> if n = 0 then [] else [ Violation.make ~dt 0 n ]
  | Bits b ->
      let acc = ref [] and from = ref (-1) in
      let close i =
        if !from >= 0 then begin
          acc := Violation.make ~dt !from (i - !from) :: !acc;
          from := -1
        end
      in
      for w = 0 to ((n + 63) / 64) - 1 do
        let x = Bytes.get_int64_le b (w * 8) and base = w * 64 in
        let len = min 64 (n - base) in
        if x = 0L then close base
        else if x = -1L && len = 64 then (if !from < 0 then from := base)
        else
          for s = 0 to len - 1 do
            if Int64.logand (Int64.shift_right_logical x s) 1L = 0L then close (base + s)
            else if !from < 0 then from := base + s
          done
      done;
      close n;
      List.rev !acc

(* The column of op [root] for the group judging the states [mask]
   leaves clear, computing what it reads that is not yet computed: pure
   ops once per run ([pure_stamp]), the rest once per group. *)
let eval p pool tr readers ~mask ~pure_stamp ~group_stamp root =
  let rec go k =
    let stamp = if p.pure.(k) then pure_stamp else group_stamp in
    if pool.stamps.(k) = stamp then pool.vals.(k)
    else begin
      let v =
        match p.ops.(k) with
        | OTrue -> c_true
        | OFalse -> c_false
        | OAtom a -> atom_column pool tr p.avars.(a) p.atoms.(a) (Option.get readers.(a))
        | ONot c -> c_not pool (go c)
        | OAnd (a, b) -> (
            match go a with Const false -> c_false | x -> c_and pool x (go b))
        | OOr (a, b) -> ( match go a with Const true -> c_true | x -> c_or pool x (go b))
        | OImplies (a, b) -> (
            match go a with Const false -> c_true | x -> c_implies pool x (go b))
        | OIff (a, b) ->
            let x = go a in
            c_iff pool x (go b)
        | ( OPrev (c, s)
          | OOnce (c, s)
          | OHist (c, s)
          | OPrevFor (c, _, s)
          | OOnceWithin (c, _, s)
          | ORose (c, s) ) as op ->
            temporal pool op (go c) mask p.init_mem.(s)
      in
      pool.vals.(k) <- v;
      pool.stamps.(k) <- stamp;
      v
    end
  in
  go root

let rec run p (trace : Trace.t) : verdict array =
  let dt = Trace.dt trace in
  if not (Float.equal dt p.dt) then run (plan ~dt (Array.to_list p.formulas)) trace
  else begin
    let n = Trace.length trace in
    let readers = Array.map (compile_atom ~strict:false trace) p.atoms in
    let bound j =
      Array.for_all
        (fun k -> match p.ops.(k) with OAtom a -> Option.is_some readers.(a) | _ -> true)
        p.deps.(j)
    in
    let out = Array.make (Array.length p.formulas) { violations = []; inhibited = [] } in
    let groups = Hashtbl.create 4 in
    let pool = Domain.DLS.get pool_key in
    pool.used <- 0;
    pool.n <- n;
    pool.nbytes <- 8 * ((n + 63) / 64);
    if Array.length pool.vals < Array.length p.ops then begin
      pool.vals <- Array.make (Array.length p.ops) c_false;
      pool.stamps <- Array.make (Array.length p.ops) 0
    end;
    let masks =
      Array.map
        (fun v ->
          match degraded_pred trace v with None -> c_false | Some bad -> of_pred pool bad)
        p.vars
    in
    Array.iteri
      (fun j f ->
        if bound j then begin
          let key = List.filter (fun x -> masks.(x) <> Const false) p.fvars.(j) in
          let members = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (j :: members)
        end
        else begin
          let status = run_trace_status f trace in
          out.(j) <- { violations = fails ~dt status; inhibited = inhibitions ~dt status }
        end)
      p.formulas;
    let pure_stamp = tick pool in
    Hashtbl.iter
      (fun key members ->
        let mask = List.fold_left (fun m x -> c_or pool m masks.(x)) c_false key in
        let judged = c_not pool mask and group_stamp = tick pool in
        List.iter
          (fun j ->
            let violations =
              if mask = Const true then []
              else begin
                let root =
                  eval p pool trace readers ~mask ~pure_stamp ~group_stamp p.roots.(j)
                in
                let mark = pool.used in
                let ivs = runs ~dt n (c_and pool (c_not pool root) judged) in
                pool.used <- mark;
                ivs
              end
            in
            out.(j) <- { violations; inhibited = runs ~dt n mask })
          (List.rev members))
      groups;
    out
  end
