(** A state as a flat row of cells, one per {e slot}.

    The simulation kernel interns every state variable of a world to an
    integer slot once, when the world is made, and keeps each state as a
    frame: cell [s] holds the value of the variable interned to slot [s].
    A variable the world knows but no component has written yet (a write
    to an undeclared variable) holds {!absent}, which is never a readable
    value: it is the frame form of a [State.t] without that binding.

    [State.t] stays the hashable, immutable view used by the model
    checker, the reference semantics and the [State.t] adapters; the two
    convert through {!of_state} and {!load}. *)

type t = Value.t array

val absent : Value.t
(** The marker of an unbound cell, compared physically ([==]). No reader
    ever returns it: reading an absent cell raises [State.Unbound]. *)

val make : int -> t
(** [make n] — [n] absent cells. *)

val get : string array -> t -> int -> Value.t
(** [get names f s] — the value in cell [s].
    @raise State.Unbound [names.(s)] when the cell is absent. *)

val to_state : string array -> t -> State.t
(** [to_state names f] — the bindings [names.(s) = f.(s)] of every present
    cell. *)

val of_state : string array -> State.t -> t
(** [of_state names st] — cell [s] is [names.(s)]'s value in [st], or
    {!absent}. Bindings of [st] outside [names] are dropped. *)

val load : string array -> State.t -> t -> unit
(** [load names st f] overwrites [f] with [of_state names st]. *)
