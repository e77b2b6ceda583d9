(** Finite execution traces: a sequence of states sampled at a fixed period.

    The thesis's simulation states are 1 ms apart ("the time interval of
    one state"); [dt] carries that period so bounded-duration operators can
    convert seconds into numbers of states.

    Traces are stored {e columnar}: one typed column per state variable
    (unboxed [floatarray] for numeric signals, packed bytes for booleans,
    interned ids for symbolic enumerations, one cell for a signal that
    holds a single value all run) instead of one [State.t] map per tick.
    The flat, pointer-free columns cost the GC nothing to retain,
    [Marshal] ships them as near-memcpy blobs across shard-worker pipes,
    and {!Rtmon.Incremental} reads one signal across all states without a
    map lookup per atom. The packed form is {e canonical} — a function of
    [dt] and the cell values alone, sharing no block with the recorded
    values — so traces with equal cells marshal to identical bytes
    whether they were built from [State.t] rows ({!make}) or from kernel
    frames ({!Builder.add_frame}).

    [get], [fold] and [iteri] materialize classic [State.t] rows on
    demand; all row-oriented consumers behave exactly as before. *)

type t

val make : dt:float -> State.t list -> t
(** @raise Invalid_argument when [dt <= 0]. *)

val of_array : dt:float -> State.t array -> t

val init : dt:float -> int -> (int -> State.t) -> t
(** [init ~dt n f] builds a trace of [n] states where state [i] is [f i]. *)

val length : t -> int
val dt : t -> float

val get : t -> int -> State.t
(** The state at index [i], materialized from the columns (a fresh
    [State.t] per call — hot per-state loops should read columns via
    {!column} instead). @raise Invalid_argument when out of bounds. *)

val time : t -> int -> float
(** Wall-clock time of state [i] (state 0 is at time 0). *)

val duration_to_states : dt:float -> float -> int
(** [duration_to_states ~dt d] — how many consecutive states span duration
    [d]: the smallest [k >= 1] with [k * dt >= d]. *)

val signal : t -> string -> (float * float) list
(** A float signal as [(time, value)] pairs.
    @raise State.Unbound when the variable is absent in any state. *)

val bool_signal : t -> string -> (float * bool) list

val fold : ('a -> State.t -> 'a) -> 'a -> t -> 'a
val iteri : (int -> State.t -> unit) -> t -> unit

(** {1 Columnar access}

    The typed column view behind the monitor fast path. Treat the arrays
    as read-only: they {e are} the trace. *)

type col =
  | CCol of Value.t
      (** every present cell holds this one value: same constructor, same
          payload, floats compared bit for bit (so [0.] and [-0.], or two
          NaN payloads, are different values). Takes precedence over
          every other kind; in the vehicle runs most columns are
          constant. *)
  | FCol of floatarray  (** every present cell is [Value.Float] *)
  | ICol of int array  (** every present cell is [Value.Int] *)
  | BCol of Bytes.t  (** [Value.Bool] packed as 0/1 bytes *)
  | SCol of { values : Value.t array; ids : Bytes.t }
      (** [Value.Sym] cells interned: [values] is the symbol table in
          first-occurrence order (at most 256 entries), [ids] one table
          index per state *)
  | VCol of Value.t array  (** mixed-type signal, stored exactly *)

val column : t -> string -> (col * Bytes.t option) option
(** [column tr v] — the packed column of variable [v] and its presence
    mask ([None] = bound in every state; [Some p] = bound exactly where
    [p] has byte 1, other cells are padding and must not be read).
    [None] when no state binds [v]. *)

val approx_bytes : t -> int
(** Rough in-memory footprint of the packed representation, in bytes —
    the accounting behind the [trace_store.bytes] counter. *)

(** {1 Incremental construction}

    The allocation-friendly way to record a simulation: append states as
    they are computed — cells go straight into typed columns, so the run
    never retains one map per tick. The simulation kernel appends its
    frames ({!Frame}) to slot-bound columns; [add] is the same builder
    fed from [State.t] rows. Either way {!finish} packs the columns into
    the same canonical form. *)

module Builder : sig
  type b

  val create : ?hint:int -> dt:float -> unit -> b
  (** A builder fed with {!add}. [hint] — expected number of states (the
      initial column capacity).
      @raise Invalid_argument when [dt <= 0]. *)

  val of_slots : ?hint:int -> dt:float -> string array -> b
  (** [of_slots ~dt names] — a builder fed with {!add_frame}: cell [s] of
      every frame is recorded in the column of [names.(s)].
      @raise Invalid_argument when [dt <= 0]. *)

  val add : b -> State.t -> unit
  (** Append one state. Variables never seen before open a new column
      (absent in all earlier states); variables missing from this state
      are recorded as absent.
      @raise Invalid_argument on a builder made by {!of_slots} with at
      least one slot: such a builder takes only frames. *)

  val add_frame : b -> Frame.t -> unit
  (** Append one frame, exactly as [add (Frame.to_state names f)] would,
      without building the state: {!Frame.absent} cells are recorded as
      absent. The builder keeps the cell it found in each slot at the
      previous row: a cell that is physically the same is not recorded
      again until the slot next changes or {!finish} runs. Cells are
      immutable, so the caller may reuse and mutate its frames in place
      between calls (the kernel alternates two). *)

  val length : b -> int

  val finish : b -> t
  (** The packed trace: each column becomes the first matching kind of
      {!col}. The builder is spent: the trace may reuse its stores. A
      column stays a single value until a second value is appended, so a
      constant signal never allocates a column store. *)
end
