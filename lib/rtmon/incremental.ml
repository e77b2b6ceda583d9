(** Pure incremental monitors for the past-time fragment.

    A formula is compiled once into a flat instruction array; the monitor's
    dynamic state is a plain [int array] of memory slots (booleans as 0/1,
    counters for the bounded-duration operators). Because the dynamic state is
    a small comparable vector, the same monitor drives both online monitoring
    during simulation ({!Rtmon.Online}) and the finite product construction of
    the model checker ({!Mc.Checker}).

    Equivalence with the reference semantics {!Tl.Eval.eval} is established by
    the property tests in [test/test_rtmon.ml]. *)

open Tl

type op =
  | OTrue
  | OFalse
  | OAtom of Formula.atom
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

type compiled = { ops : op array; init_mem : int array; root : int; dt : float }

exception Not_monitorable of string

(** [compile ~dt f] compiles the past-time formula [f]. A top-level [Always]
    is stripped (invariant monitoring evaluates the body at every state).
    @raise Not_monitorable if a future operator remains. *)
let compile ~dt (f : Formula.t) : compiled =
  let body =
    match Formula.invariant_body f with
    | Some b -> b
    | None ->
        raise
          (Not_monitorable
             (Fmt.str "formula contains future operators: %a" Formula.pp f))
  in
  let ops = ref [] and nops = ref 0 and mem = ref [] and nmem = ref 0 in
  let emit op =
    ops := op :: !ops;
    incr nops;
    !nops - 1
  in
  let alloc init =
    mem := init :: !mem;
    incr nmem;
    !nmem - 1
  in
  let rec go (f : Formula.t) =
    match f with
    | True -> emit OTrue
    | False -> emit OFalse
    | Atom a -> emit (OAtom a)
    | Not g ->
        let c = go g in
        emit (ONot c)
    | And (a, b) ->
        let ca = go a in
        let cb = go b in
        emit (OAnd (ca, cb))
    | Or (a, b) ->
        let ca = go a in
        let cb = go b in
        emit (OOr (ca, cb))
    | Implies (a, b) ->
        let ca = go a in
        let cb = go b in
        emit (OImplies (ca, cb))
    | Iff (a, b) ->
        let ca = go a in
        let cb = go b in
        emit (OIff (ca, cb))
    | Prev g ->
        let c = go g in
        emit (OPrev (c, alloc 0))
    | Once g ->
        let c = go g in
        emit (OOnce (c, alloc 0))
    | Hist g ->
        let c = go g in
        emit (OHist (c, alloc 1))
    | PrevFor (d, g) ->
        let k = Trace.duration_to_states ~dt d in
        let c = go g in
        emit (OPrevFor (c, k, alloc 0))
    | OnceWithin (d, g) ->
        let k = Trace.duration_to_states ~dt d in
        let c = go g in
        emit (OOnceWithin (c, k, alloc k))
    | Rose g ->
        let c = go g in
        emit (ORose (c, alloc 2))
    | Next _ | Eventually _ | Always _ ->
        raise (Not_monitorable "nested future operator")
  in
  let root = go body in
  {
    ops = Array.of_list (List.rev !ops);
    init_mem = Array.of_list (List.rev !mem);
    root;
    dt;
  }

type t = { c : compiled; mem : int array }

let create ~dt f =
  let c = compile ~dt f in
  { c; mem = Array.copy c.init_mem }

(** Dynamic state alone, for use as a model-checking product component. *)
let mem t = t.mem

let with_mem t mem = { t with mem }

(** [step t state] evaluates one state transition, returning the formula's
    truth value in [state] and the successor monitor. The input monitor is not
    mutated. *)
let step (t : t) (state : State.t) : bool * t =
  let { ops; root; _ } = t.c in
  let n = Array.length ops in
  let v = Array.make n false in
  let mem' = Array.copy t.mem in
  for i = 0 to n - 1 do
    (match ops.(i) with
    | OTrue -> v.(i) <- true
    | OFalse -> v.(i) <- false
    | OAtom a -> v.(i) <- Eval.eval_atom state a
    | ONot c -> v.(i) <- not v.(c)
    | OAnd (a, b) -> v.(i) <- v.(a) && v.(b)
    | OOr (a, b) -> v.(i) <- v.(a) || v.(b)
    | OImplies (a, b) -> v.(i) <- (not v.(a)) || v.(b)
    | OIff (a, b) -> v.(i) <- v.(a) = v.(b)
    | OPrev (c, s) ->
        v.(i) <- t.mem.(s) = 1;
        mem'.(s) <- (if v.(c) then 1 else 0)
    | OOnce (c, s) ->
        v.(i) <- t.mem.(s) = 1;
        mem'.(s) <- (if t.mem.(s) = 1 || v.(c) then 1 else 0)
    | OHist (c, s) ->
        v.(i) <- t.mem.(s) = 1;
        mem'.(s) <- (if t.mem.(s) = 1 && v.(c) then 1 else 0)
    | OPrevFor (c, k, s) ->
        v.(i) <- t.mem.(s) >= k;
        mem'.(s) <- (if v.(c) then min k (t.mem.(s) + 1) else 0)
    | OOnceWithin (c, k, s) ->
        v.(i) <- t.mem.(s) <= k - 1;
        mem'.(s) <- (if v.(c) then 0 else min k (t.mem.(s) + 1))
    | ORose (c, s) ->
        v.(i) <- v.(c) && t.mem.(s) = 0;
        mem'.(s) <- (if v.(c) then 1 else 0));
    ()
  done;
  (v.(root), { t with mem = mem' })

(* ------------------------------------------------------------------ *)
(* Columnar fast path: compile every atom of a formula against one
   trace's typed columns ({!Tl.Trace.column}), so the per-state loop
   reads unboxed cells directly instead of materializing a [State.t]
   map per state and searching it per atom. Compilation refuses (returns
   [None]) whenever the column types cannot {e prove} the compiled
   reader equivalent to [Eval.eval_atom] over the materialized state —
   mixed-type columns, ordered comparisons over non-numeric terms,
   and (in [strict] mode, used where the slow path would raise
   [State.Unbound]) partially-present columns. Refusal falls back to
   the reference per-state path, never to different semantics; the
   QCheck property tests against {!Tl.Eval} exercise both paths. *)

(* Exact [Value.t] of a column cell — only sound where the cell is
   present. *)
let cell col i =
  match col with
  | Trace.CCol v -> v
  | Trace.FCol a -> Value.Float (Float.Array.get a i)
  | Trace.ICol a -> Value.Int a.(i)
  | Trace.BCol b -> Value.Bool (Bytes.get b i = '\001')
  | Trace.SCol { values; ids } -> values.(Char.code (Bytes.get ids i))
  | Trace.VCol a -> a.(i)

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

(* One compiled reader per [OAtom] op; [None] if any atom refuses. *)
let compile_atoms ~strict tr (c : compiled) : (int -> bool) array option =
  let n = Array.length c.ops in
  let afuns = Array.make n (fun _ -> false) in
  let ok = ref true in
  Array.iteri
    (fun k op ->
      match op with
      | OAtom a -> (
          match compile_atom ~strict tr a with
          | Some f -> afuns.(k) <- f
          | None -> ok := false)
      | _ -> ())
    c.ops;
  if !ok then Some afuns else None

(* One transition of the op program at state [i], reading column-compiled
   atoms: the loop body of {!step} with the per-state [v]/[mem'] arrays
   preallocated by the caller (each memory slot has a unique owner op
   that writes it on every step, so [mem]/[mem'] swap instead of copy). *)
let fast_step ops afuns v mem mem' i =
  let n = Array.length ops in
  for k = 0 to n - 1 do
    match ops.(k) with
    | OTrue -> v.(k) <- true
    | OFalse -> v.(k) <- false
    | OAtom _ -> v.(k) <- afuns.(k) i
    | ONot c -> v.(k) <- not v.(c)
    | OAnd (a, b) -> v.(k) <- v.(a) && v.(b)
    | OOr (a, b) -> v.(k) <- v.(a) || v.(b)
    | OImplies (a, b) -> v.(k) <- (not v.(a)) || v.(b)
    | OIff (a, b) -> v.(k) <- v.(a) = v.(b)
    | OPrev (c, s) ->
        v.(k) <- mem.(s) = 1;
        mem'.(s) <- (if v.(c) then 1 else 0)
    | OOnce (c, s) ->
        v.(k) <- mem.(s) = 1;
        mem'.(s) <- (if mem.(s) = 1 || v.(c) then 1 else 0)
    | OHist (c, s) ->
        v.(k) <- mem.(s) = 1;
        mem'.(s) <- (if mem.(s) = 1 && v.(c) then 1 else 0)
    | OPrevFor (c, k', s) ->
        v.(k) <- mem.(s) >= k';
        mem'.(s) <- (if v.(c) then min k' (mem.(s) + 1) else 0)
    | OOnceWithin (c, k', s) ->
        v.(k) <- mem.(s) <= k' - 1;
        mem'.(s) <- (if v.(c) then 0 else min k' (mem.(s) + 1))
    | ORose (c, s) ->
        v.(k) <- v.(c) && mem.(s) = 0;
        mem'.(s) <- (if v.(c) then 1 else 0)
  done

(** [run_trace ~dt f trace] — truth value of [f]'s invariant body at every
    state, computed incrementally. Agrees with
    [Tl.Eval.series trace (invariant_body f)]. *)
let run_trace f (trace : Trace.t) : bool array =
  let t0 = create ~dt:(Trace.dt trace) f in
  let n = Trace.length trace in
  let out = Array.make n true in
  (* Strict compile: the reference path raises [State.Unbound] on a
     missing variable, so only fully-present columns may fast-path. *)
  (match compile_atoms ~strict:true trace t0.c with
  | Some afuns ->
      let ops = t0.c.ops in
      let v = Array.make (Array.length ops) false in
      let mem = ref (Array.copy t0.c.init_mem) in
      let mem' = ref (Array.copy t0.c.init_mem) in
      for i = 0 to n - 1 do
        fast_step ops afuns v !mem !mem' i;
        out.(i) <- v.(t0.c.root);
        let m = !mem in
        mem := !mem';
        mem' := m
      done
  | None ->
      let rec go i t =
        if i < n then begin
          let ok, t' = step t (Trace.get trace i) in
          out.(i) <- ok;
          go (i + 1) t'
        end
      in
      go 0 t0);
  out

(* ------------------------------------------------------------------ *)
(* Degradation-aware monitoring: under runtime faults (dropout, NaN,
   frozen sensors) a monitor's inputs can be missing or garbage. Rather
   than silently classifying over garbage, the three-valued runner reports
   [Inhibited] for such states — the monitor knows it cannot judge. *)

type status = Pass | Fail | Inhibited

(** A value a monitor must refuse to judge on. *)
let degraded = function Value.Float f -> Float.is_nan f | _ -> false

(** [inhibited state vars] — is any monitored input missing or NaN? *)
let inhibited state vars =
  List.exists
    (fun v ->
      match State.find_opt v state with None -> true | Some x -> degraded x)
    vars

(** [run_trace_status ?stale f trace] — three-valued verdict per state.

    A state is [Inhibited] when any state variable of [f] is missing or
    NaN, or when a variable listed in [stale] has held the exact same value
    for longer than its bound (opt-in, for signals with known activity:
    hold-last dropout is otherwise indistinguishable from a legitimately
    constant signal). The monitor's memory is {e frozen} across inhibited
    states — it resumes from its pre-fault state rather than absorbing
    garbage. *)
let run_trace_status ?(stale = []) f (trace : Trace.t) : status array =
  let vars = Formula.vars f in
  let n = Trace.length trace in
  let out = Array.make n Pass in
  let dt = Trace.dt trace in
  (* per-stale-variable run length of the unchanged value *)
  let stale_k =
    List.map (fun (v, bound) -> (v, Trace.duration_to_states ~dt bound)) stale
  in
  let runs = Hashtbl.create 8 in
  let t0 = create ~dt f in
  (match compile_atoms ~strict:false trace t0.c with
  | Some afuns ->
      (* Compiled inhibition check, one closure per monitored variable:
         missing column is always-inhibited, a presence mask marks
         per-state absence, and only float-bearing columns can carry a
         degraded (NaN) cell — a constant NaN column inhibits every state.
         Padding cells are never read: [absent] short-circuits first. *)
      let inh_checks =
        List.map
          (fun var ->
            match Trace.column trace var with
            | None -> fun _ -> true
            | Some (col, pres) -> (
                let absent =
                  match pres with
                  | None -> fun _ -> false
                  | Some p -> fun i -> Bytes.get p i <> '\001'
                in
                match col with
                | Trace.CCol x when degraded x -> fun _ -> true
                | Trace.FCol a ->
                    fun i -> absent i || Float.is_nan (Float.Array.get a i)
                | Trace.VCol a -> fun i -> absent i || degraded a.(i)
                | _ -> absent))
          vars
      in
      let inh i = List.exists (fun c -> c i) inh_checks in
      let stale_reads =
        List.map
          (fun (var, k) ->
            let read =
              match Trace.column trace var with
              | None -> fun _ -> None
              | Some (col, pres) -> (
                  match pres with
                  | None -> fun i -> Some (cell col i)
                  | Some p ->
                      fun i ->
                        if Bytes.get p i = '\001' then Some (cell col i)
                        else None)
            in
            (var, k, read))
          stale_k
      in
      let stale_now i =
        List.exists
          (fun (var, k, read) ->
            match read i with
            | None -> false (* missing is the inhibition check's business *)
            | Some x -> (
                match Hashtbl.find_opt runs var with
                | Some (prev, len) when Value.equal prev x ->
                    Hashtbl.replace runs var (x, len + 1);
                    len + 1 > k
                | _ ->
                    Hashtbl.replace runs var (x, 1);
                    false))
          stale_reads
      in
      let ops = t0.c.ops in
      let v = Array.make (Array.length ops) false in
      let mem = ref (Array.copy t0.c.init_mem) in
      let mem' = ref (Array.copy t0.c.init_mem) in
      for i = 0 to n - 1 do
        let is_stale = stale_now i in
        if inh i || is_stale then out.(i) <- Inhibited (* memory frozen *)
        else begin
          fast_step ops afuns v !mem !mem' i;
          out.(i) <- (if v.(t0.c.root) then Pass else Fail);
          let m = !mem in
          mem := !mem';
          mem' := m
        end
      done
  | None ->
      let stale_now state =
        List.exists
          (fun (var, k) ->
            match State.find_opt var state with
            | None -> false (* missing is the [inhibited] check's business *)
            | Some x -> (
                match Hashtbl.find_opt runs var with
                | Some (prev, len) when Value.equal prev x ->
                    Hashtbl.replace runs var (x, len + 1);
                    len + 1 > k
                | _ ->
                    Hashtbl.replace runs var (x, 1);
                    false))
          stale_k
      in
      let rec go i t =
        if i < n then begin
          let state = Trace.get trace i in
          let is_stale = stale_now state in
          if inhibited state vars || is_stale then begin
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
      go 0 t0);
  out

(** Violation intervals of a status series (maximal [Fail] runs). *)
let fails ~dt status =
  Violation.runs ~dt (Array.length status) (fun i -> status.(i) = Fail)

(** Inhibition intervals of a status series (maximal [Inhibited] runs). *)
let inhibitions ~dt status =
  Violation.runs ~dt (Array.length status) (fun i -> status.(i) = Inhibited)
