(** A state as a flat row of cells, one per {e slot}, plus the log of the
    slots that changed.

    The simulation kernel interns every state variable of a world to an
    integer slot once, when the world is made, and keeps each state as a
    frame: cell [s] holds the value of the variable interned to slot [s].
    A variable the world knows but no component has written yet (a write
    to an undeclared variable) holds {!absent}, which is never a readable
    value: it is the frame form of a [State.t] without that binding.

    {b The change log.} A frame logs every slot whose cell a {!set}
    changes (physically, [!=]), once per slot until the log is next
    emptied by {!copy_logged}. So the log is bounded by the slot count and
    allocated with the frame. The kernel and the trace recorder visit
    only logged slots: {!copy_logged} turns the frame before last into a
    copy of the last one, and [Trace.Builder.add_frame] records the
    logged cells.

    {b The write contract.} {!set} (and {!load}, which writes through it)
    is the only way to write a cell. No code may write a cell of a running
    frame any other way: a cell changed behind the log is neither copied
    to the next state nor recorded in the trace.

    [State.t] stays the hashable, immutable view used by the model
    checker, the reference semantics and the [State.t] adapters; the two
    convert through {!of_state} and {!load}. *)

type t

val absent : Value.t
(** The marker of an unbound cell, compared physically ([==]). No reader
    ever returns it: reading an absent cell raises [State.Unbound]. *)

val make : int -> t
(** [make n] — [n] absent cells and an empty log. *)

val cell : t -> int -> Value.t
(** [cell f s] — the cell in slot [s] as it is, {!absent} included. *)

val get : string array -> t -> int -> Value.t
(** [get names f s] — the value in cell [s].
    @raise State.Unbound [names.(s)] when the cell is absent. *)

val set : t -> int -> Value.t -> unit
(** [set f s v] — the one writer: when the cell does not already hold [v]
    physically, stores [v] and logs [s] (once until the log is emptied).
    A write that keeps the block already there logs nothing. [v] may be
    {!absent}. *)

val logged : t -> int
(** The number of slots in the log. *)

val logged_slot : t -> int -> int
(** [logged_slot f k] — the [k]th logged slot, [0 <= k < logged f], in
    the order the slots were first changed. *)

val copy_logged : src:t -> t -> unit
(** [copy_logged ~src f] empties [f]'s log, then copies into [f] the cells
    [src] logged, without logging them. When [f] held [src]'s cells as of
    [src]'s last {!copy_logged} (or is fresh from {!make} and [src] has
    logged every present cell since its own {!make}), [f] then equals
    [src] cell for cell, and its log lists, from then on, the slots that
    differ from [src]. *)

val to_state : string array -> t -> State.t
(** [to_state names f] — the bindings [names.(s) = cell f s] of every
    present cell. *)

val of_state : string array -> State.t -> t
(** [of_state names st] — cell [s] is [names.(s)]'s value in [st], or
    {!absent}. Bindings of [st] outside [names] are dropped. Every present
    cell is logged. *)

val load : string array -> State.t -> t -> unit
(** [load names st f] — {!set}s every cell of [f] to its cell in
    [of_state names st]: a slot whose cell changes is logged. *)
