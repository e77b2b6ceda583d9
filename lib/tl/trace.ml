(** Finite execution traces: a sequence of states sampled at a fixed period.

    The thesis's simulation states are 1 ms apart ("the time interval of one
    state"); [dt] carries that period so bounded-duration operators can
    convert seconds into numbers of states.

    Storage is columnar: one typed column per state variable (unboxed
    [floatarray] for numeric signals, packed bytes for booleans, interned
    ids for symbols, a single cell for a signal that never changes),
    rather than one [State.t] map per tick. A 20-second vehicle run is
    then a handful of flat, pointer-free blobs — the GC never traverses
    it, [Marshal] is effectively a memcpy, and monitors can read one
    signal across all states without a single map lookup. [get] and the
    iterators materialize classic [State.t] rows on demand, so every
    consumer of the old row-oriented representation behaves identically. *)

(* A column's cells, one per state. The constructor is chosen canonically
   from the cell values alone (see [Builder.finish]), so structurally
   equal traces have structurally equal — and therefore Marshal-equal —
   columns:
   - [CCol]  : every present cell holds one value (same constructor, same
               payload; floats compared bit for bit);
   - [FCol]  : every present cell is [Value.Float] (NaN included);
   - [ICol]  : every present cell is [Value.Int];
   - [BCol]  : every present cell is [Value.Bool], packed as 0/1 bytes;
   - [SCol]  : every present cell is [Value.Sym] with at most 256 distinct
               symbols; [values] is the intern table in first-occurrence
               order and [ids] one table index per state;
   - [VCol]  : anything else (mixed-type signals), stored exactly.
   The first matching kind wins. *)
type col =
  | CCol of Value.t
  | FCol of floatarray
  | ICol of int array
  | BCol of Bytes.t
  | SCol of { values : Value.t array; ids : Bytes.t }
  | VCol of Value.t array

type column = {
  name : string;
  col : col;
  presence : Bytes.t option;
      (** [None] = the variable is bound in every state; [Some p] = bound
          exactly where [p] has byte 1 (cells elsewhere are padding). *)
}

type t = { dt : float; len : int; cols : column array (* sorted by name *) }

let length tr = tr.len
let dt tr = tr.dt

(* Shared immediate-ish values so packed-column reads allocate nothing for
   booleans. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let cell_value col i =
  match col with
  | CCol v -> v
  | FCol a -> Value.Float (Float.Array.get a i)
  | ICol a -> Value.Int a.(i)
  | BCol b -> if Bytes.get b i = '\001' then vtrue else vfalse
  | SCol { values; ids } -> values.(Char.code (Bytes.get ids i))
  | VCol a -> a.(i)

let present c i =
  match c.presence with None -> true | Some p -> Bytes.get p i = '\001'

(* Binary search over the name-sorted column array. *)
let find_column tr name =
  let cols = tr.cols in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare name cols.(mid).name in
      if c = 0 then Some cols.(mid)
      else if c < 0 then go lo mid
      else go (mid + 1) hi
  in
  go 0 (Array.length cols)

let column tr name =
  match find_column tr name with
  | Some c -> Some (c.col, c.presence)
  | None -> None

let get tr i =
  if i < 0 || i >= tr.len then invalid_arg "index out of bounds";
  let bindings = ref [] in
  for k = Array.length tr.cols - 1 downto 0 do
    let c = tr.cols.(k) in
    if present c i then bindings := (c.name, cell_value c.col i) :: !bindings
  done;
  State.of_list !bindings

let value tr i name =
  if i < 0 || i >= tr.len then invalid_arg "index out of bounds";
  match find_column tr name with
  | Some c when present c i -> cell_value c.col i
  | _ -> raise (State.Unbound name)

(** Wall-clock time of state [i] (state 0 is at time 0). *)
let time tr i = float_of_int i *. tr.dt

(** [duration_to_states ~dt d] — how many consecutive states span duration
    [d]: the smallest [k >= 1] with [k * dt >= d]. *)
let duration_to_states ~dt d =
  if d <= 0. then 1 else max 1 (int_of_float (Float.ceil ((d /. dt) -. 1e-9)))

(* ------------------------------------------------------------------ *)
(* Builder                                                              *)

module Builder = struct
  (* A column holds one value ([GK]) until a present cell differs; it is
     then materialized into the narrowest typed store its first value
     fits, and promoted to [GV] (exact [Value.t] cells) on the first type
     conflict. Most vehicle signals never leave [GK], so most columns
     never allocate a store. [finish] packs each store into the canonical
     column kind: [GK] is exactly [CCol], and a typed store always holds
     at least two different values. *)
  type store =
    | GK of Value.t
    | GF of floatarray
    | GI of int array
    | GB of Bytes.t
    | GS of {
        mutable values : Value.t array;  (* Sym intern table *)
        mutable nvalues : int;
        tbl : (string, int) Hashtbl.t;
        ids : Bytes.t;
      }
    | GV of Value.t array

  type bcolumn = {
    cname : string;
    mutable store : store;
    first : int;  (* first present row *)
    mutable last : int;  (* last present row *)
    mutable pres : Bytes.t option;
        (* [None]: present in exactly the rows [first..last]; [Some p]:
           present where [p] has byte 1 (allocated on the first gap, grown
           lazily, missing tail bytes absent) *)
  }

  type b = {
    bdt : float;
    mutable rows : int;
    mutable cap : int;
    mutable bcols : bcolumn list;  (* creation order; sorted at finish *)
    index : (string, bcolumn) Hashtbl.t;
    names : string array;  (* slot -> variable, for [add_frame] *)
    slots : bcolumn option array;  (* slot -> its column, once opened *)
    cells : Value.t array;
        (* slot -> the cell [add_frame] found at the previous row
           ([Frame.absent] when absent). While a slot's cell stays
           physically the same, its column records nothing: [last] lags
           behind, and [catch_up] repeats the cell up to the current row
           at the slot's next change and at [finish]. *)
  }

  let make ~hint ~dt names =
    {
      bdt = dt;
      rows = 0;
      cap = max 16 hint;
      bcols = [];
      index = Hashtbl.create 64;
      names;
      slots = Array.make (Array.length names) None;
      cells = Array.make (Array.length names) Frame.absent;
    }

  let create ?(hint = 1024) ~dt () =
    if dt <= 0. then invalid_arg "Trace.Builder.create: dt must be positive";
    make ~hint ~dt [||]

  let of_slots ?(hint = 1024) ~dt names =
    if dt <= 0. then invalid_arg "Trace.Builder.of_slots: dt must be positive";
    make ~hint ~dt names

  let length b = b.rows

  (* The one-value test of [CCol]: same constructor, same payload, floats
     bit for bit. *)
  let same a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Value.Int x, Value.Int y -> x = y
    | Value.Bool x, Value.Bool y -> x = y
    | Value.Sym x, Value.Sym y -> String.equal x y
    | _ -> false

  let is_present c i =
    i >= c.first && i <= c.last
    && match c.pres with None -> true | Some p -> Bytes.get p i = '\001'

  let grow_store cap = function
    | GK _ as s -> s
    | GF a ->
        let a' = Float.Array.make cap 0. in
        Float.Array.blit a 0 a' 0 (Float.Array.length a);
        GF a'
    | GI a ->
        let a' = Array.make cap 0 in
        Array.blit a 0 a' 0 (Array.length a);
        GI a'
    | GB s ->
        let s' = Bytes.make cap '\000' in
        Bytes.blit s 0 s' 0 (Bytes.length s);
        GB s'
    | GS g ->
        let ids = Bytes.make cap '\000' in
        Bytes.blit g.ids 0 ids 0 (Bytes.length g.ids);
        GS { g with ids }
    | GV a ->
        let a' = Array.make cap vfalse in
        Array.blit a 0 a' 0 (Array.length a);
        GV a'

  let ensure b c =
    match c.store with
    | GF a when Float.Array.length a < b.cap -> c.store <- grow_store b.cap c.store
    | GI a when Array.length a < b.cap -> c.store <- grow_store b.cap c.store
    | GB s when Bytes.length s < b.cap -> c.store <- grow_store b.cap c.store
    | GS { ids; _ } when Bytes.length ids < b.cap ->
        c.store <- grow_store b.cap c.store
    | GV a when Array.length a < b.cap -> c.store <- grow_store b.cap c.store
    | _ -> ()

  (* Rebuild the first [n] cells of a store as exact values — the promotion
     path when a column stops being monomorphic. Only present cells are ever
     read back, so reconstructing padding cells as typed zeros is sound. *)
  let promote cap n = function
    | GK v -> Array.init cap (fun i -> if i < n then v else vfalse)
    | GF a -> Array.init cap (fun i -> if i < n then Value.Float (Float.Array.get a i) else vfalse)
    | GI a -> Array.init cap (fun i -> if i < n then Value.Int a.(i) else vfalse)
    | GB s ->
        Array.init cap (fun i ->
            if i < n then if Bytes.get s i = '\001' then vtrue else vfalse
            else vfalse)
    | GS { values; ids; _ } ->
        Array.init cap (fun i ->
            if i < n then values.(Char.code (Bytes.get ids i)) else vfalse)
    | GV a -> Array.init cap (fun i -> if i < Array.length a && i < n then a.(i) else vfalse)

  (* An empty typed store for the kind of [v] (padding cells are zero). *)
  let typed_store cap (v : Value.t) =
    match v with
    | Value.Float _ -> GF (Float.Array.make cap 0.)
    | Value.Int _ -> GI (Array.make cap 0)
    | Value.Bool _ -> GB (Bytes.make cap '\000')
    | Value.Sym s ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.add tbl s 0;
        GS { values = Array.make 8 v; nvalues = 1; tbl; ids = Bytes.make cap '\000' }

  (* Write [v] at [row] of the column's store. *)
  let store_cell b c row (v : Value.t) =
    ensure b c;
    match (c.store, v) with
    | GF a, Value.Float f -> Float.Array.set a row f
    | GI a, Value.Int i -> a.(row) <- i
    | GB s, Value.Bool bv -> Bytes.set s row (if bv then '\001' else '\000')
    | GS g, Value.Sym s -> (
        match Hashtbl.find_opt g.tbl s with
        | Some id -> Bytes.set g.ids row (Char.chr id)
        | None when g.nvalues < 256 ->
            let id = g.nvalues in
            if id >= Array.length g.values then begin
              let values = Array.make (2 * Array.length g.values) v in
              Array.blit g.values 0 values 0 g.nvalues;
              g.values <- values
            end;
            g.values.(id) <- v;
            g.nvalues <- id + 1;
            Hashtbl.add g.tbl s id;
            Bytes.set g.ids row (Char.chr id)
        | None ->
            (* intern table overflow: fall back to exact storage *)
            let a = promote b.cap row c.store in
            a.(row) <- v;
            c.store <- GV a)
    | GV a, v -> a.(row) <- v
    | store, v ->
        let a = promote b.cap row store in
        a.(row) <- v;
        c.store <- GV a

  (* A one-value column meets a second value: give it a typed store holding
     the one value in every present row so far. *)
  let materialize b c k =
    c.store <- typed_store b.cap k;
    for i = c.first to c.last do
      if is_present c i then store_cell b c i k
    done

  (* The presence bytes of a column with a gap, long enough for [row]. *)
  let gap_bytes b c p row =
    if Bytes.length p > row then p
    else begin
      let p' = Bytes.make b.cap '\000' in
      Bytes.blit p 0 p' 0 (Bytes.length p);
      c.pres <- Some p';
      p'
    end

  (* Record the column present at [row], later than every earlier row. *)
  let mark_present b c row =
    (match c.pres with
    | None when row = c.last + 1 -> ()
    | None ->
        let p = Bytes.make b.cap '\000' in
        Bytes.fill p c.first (c.last - c.first + 1) '\001';
        Bytes.set p row '\001';
        c.pres <- Some p
    | Some p -> Bytes.set (gap_bytes b c p row) row '\001');
    c.last <- row

  (* Rows [c.last + 1 .. row] repeat the cell of row [c.last]. *)
  let catch_up b c row =
    let from = c.last + 1 in
    if row >= from then begin
      let n = row - from + 1 in
      ensure b c;
      (match c.store with
      | GK _ -> ()
      | GF a -> Float.Array.fill a from n (Float.Array.get a c.last)
      | GI a -> Array.fill a from n a.(c.last)
      | GB s -> Bytes.fill s from n (Bytes.get s c.last)
      | GS g -> Bytes.fill g.ids from n (Bytes.get g.ids c.last)
      | GV a -> Array.fill a from n a.(c.last));
      (match c.pres with
      | None -> ()
      | Some p -> Bytes.fill (gap_bytes b c p row) from n '\001');
      c.last <- row
    end

  let write b c row (v : Value.t) =
    (match c.store with
    | GK k when same k v -> ()
    | GK k ->
        materialize b c k;
        store_cell b c row v
    | _ -> store_cell b c row v);
    mark_present b c row

  (* A column first seen at [row] (absent in every earlier state). *)
  let open_column b name row v =
    let c = { cname = name; store = GK v; first = row; last = row; pres = None } in
    Hashtbl.add b.index name c;
    b.bcols <- c :: b.bcols;
    c

  let column_of b name row v =
    match Hashtbl.find_opt b.index name with
    | Some c ->
        write b c row v;
        c
    | None -> open_column b name row v

  (* Columns absent from a state record nothing: their presence is
     derived from [first], [last] and the gap bytes. *)
  let add b (st : State.t) =
    if Array.length b.names > 0 then
      invalid_arg "Trace.Builder.add: a builder made by of_slots takes frames";
    let row = b.rows in
    if row >= b.cap then b.cap <- b.cap * 2;
    State.iter (fun name v -> ignore (column_of b name row v)) st;
    b.rows <- row + 1

  (* Only the frame's logged slots are visited, and a cell that is
     physically the one of the previous row is not recorded; any other is,
     after its column catches up to the previous row. *)
  let add_frame b (f : Frame.t) =
    let row = b.rows in
    if row >= b.cap then b.cap <- b.cap * 2;
    let slots = b.slots and cells = b.cells in
    for k = 0 to Frame.logged f - 1 do
      let s = Frame.logged_slot f k in
      let v = Frame.cell f s and p = cells.(s) in
      if v != p then begin
        cells.(s) <- v;
        match slots.(s) with
        | Some c ->
            if p != Frame.absent then catch_up b c (row - 1);
            if v != Frame.absent then write b c row v
        | None -> slots.(s) <- Some (column_of b b.names.(s) row v)
      end
    done;
    b.rows <- row + 1

  (* A copy of a cell that shares no block with its input. A packed trace
     is built only from such copies and from unboxed cells, so its Marshal
     bytes cannot depend on how the recorded values were shared. *)
  let copy_value = function
    | Value.Bool x -> Value.Bool x
    | Value.Int i -> Value.Int i
    | Value.Float f -> Value.Float (Int64.float_of_bits (Int64.bits_of_float f))
    | Value.Sym s -> Value.Sym (String.sub s 0 (String.length s))

  (* The presence mask of [len] rows: [None] when present in every row.
     A gap ([Some _]) means some row is absent. *)
  let presence c len =
    match c.pres with
    | None when c.first = 0 && c.last = len - 1 -> None
    | None ->
        let p = Bytes.make len '\000' in
        Bytes.fill p c.first (c.last - c.first + 1) '\001';
        Some p
    | Some p ->
        let q = Bytes.make len '\000' in
        Bytes.blit p 0 q 0 (min len (Bytes.length p));
        Some q

  (* The canonical column for the first [len] cells of a column's store
     (see [col]); absent cells are padding. A store of exactly [len] cells
     becomes the column itself — the builder is spent after [finish]. *)
  let pack c len =
    let fit sub length a = if length a = len then a else sub a 0 len in
    match c.store with
    | GK v -> CCol (copy_value v)
    | GF a -> FCol (fit Float.Array.sub Float.Array.length a)
    | GI a -> ICol (fit Array.sub Array.length a)
    | GB s -> BCol (fit Bytes.sub Bytes.length s)
    | GS g ->
        SCol
          {
            values = Array.init g.nvalues (fun i -> copy_value g.values.(i));
            ids = fit Bytes.sub Bytes.length g.ids;
          }
    | GV a ->
        (* mixed types: never one value *)
        VCol
          (Array.init len (fun i ->
               copy_value (if is_present c i then a.(i) else vfalse)))

  let finish b : t =
    let len = b.rows in
    Array.iteri
      (fun s v ->
        match b.slots.(s) with
        | Some c when v != Frame.absent -> catch_up b c (len - 1)
        | _ -> ())
      b.cells;
    (* Columns that stopped being written early may hold stores shorter
       than the trace; grow every store to at least [len] so trimming is
       total (the grown tail is padding under absent presence). *)
    b.cap <- max b.cap len;
    List.iter (fun c -> ensure b c) b.bcols;
    let cols =
      List.map
        (fun c -> { name = c.cname; col = pack c len; presence = presence c len })
        b.bcols
      |> List.sort (fun a b -> String.compare a.name b.name)
      |> Array.of_list
    in
    { dt = b.bdt; len; cols }
end

(* ------------------------------------------------------------------ *)
(* Row-oriented constructors, over the builder                          *)

let of_seq ~dt ~hint states =
  let b = Builder.create ~hint ~dt () in
  Seq.iter (Builder.add b) states;
  Builder.finish b

let make ~dt states =
  if dt <= 0. then invalid_arg "Trace.make: dt must be positive";
  of_seq ~dt ~hint:(List.length states) (List.to_seq states)

let of_array ~dt states =
  if dt <= 0. then invalid_arg "Trace.of_array: dt must be positive";
  of_seq ~dt ~hint:(Array.length states) (Array.to_seq states)

(** [init ~dt n f] builds a trace of [n] states where state [i] is [f i]. *)
let init ~dt n f =
  if dt <= 0. then invalid_arg "Trace.init: dt must be positive";
  of_seq ~dt ~hint:n (Seq.init n f)

(* ------------------------------------------------------------------ *)
(* Signals and iteration                                                *)

(** Extract a signal as a float series, [(time, value)] pairs. *)
let signal tr name =
  match find_column tr name with
  | None -> raise (State.Unbound name)
  | Some c ->
      List.init tr.len (fun i ->
          if present c i then (time tr i, Value.to_float (cell_value c.col i))
          else raise (State.Unbound name))

(** Extract a boolean signal as a [(time, bool)] series. *)
let bool_signal tr name =
  match find_column tr name with
  | None -> raise (State.Unbound name)
  | Some c ->
      List.init tr.len (fun i ->
          if present c i then (time tr i, Value.to_bool (cell_value c.col i))
          else raise (State.Unbound name))

let fold f acc tr =
  let acc = ref acc in
  for i = 0 to tr.len - 1 do
    acc := f !acc (get tr i)
  done;
  !acc

let iteri f tr =
  for i = 0 to tr.len - 1 do
    f i (get tr i)
  done

(* ------------------------------------------------------------------ *)

(** Rough in-memory footprint of the packed representation, in bytes —
    the accounting behind the [trace_store.bytes] counter. *)
let approx_bytes tr =
  Array.fold_left
    (fun acc c ->
      let cells =
        match c.col with
        | CCol _ -> 16
        | FCol a -> 8 * Float.Array.length a
        | ICol a -> 8 * Array.length a
        | BCol s -> Bytes.length s
        | SCol { values; ids } -> Bytes.length ids + (32 * Array.length values)
        | VCol a -> 24 * Array.length a
      in
      acc + cells + String.length c.name + 16
      + (match c.presence with None -> 0 | Some p -> Bytes.length p))
    64 tr.cols
