(** Simulation components: the agents of the simulated system.

    A component declares the state variables it directly controls, with
    their initial values, and a binding function. {!World.make} calls the
    binding function once, with a {!binder} that resolves every variable
    name the component reads or writes to an integer {!slot}; the binding
    returns the component's per-tick step. The step reads the previous
    state's frame and writes the next one through those slots, so no
    variable name is looked up while the world runs.

    The kernel is double buffered: every step of a tick reads the same
    previous frame, so a component can never observe another component's
    output before the subsequent state — the thesis's core timing
    assumption (§4.1.3). *)

open Tl

type slot = int
(** A variable's cell in the world's frames. *)

type binder = string -> slot
(** Resolves a variable name to its slot. A name no component controls
    and no initial value binds gets a fresh slot that stays absent until
    first written (reading it before then raises [State.Unbound], as a
    [State.t] lookup would). *)

type context = {
  mutable now : float;  (** simulation time of the state being computed *)
  dt : float;
  mutable prev : Frame.t;  (** the previous state: every read *)
  mutable next : Frame.t;  (** the state being computed: every write *)
  names : string array;  (** slot → variable name, for error messages *)
}
(** One context serves a whole run: {!World.run} advances [now] and
    swaps [prev] and [next] in place at every tick, so a step must not
    keep the context, or either frame, past its return. *)

(** {1 Reading the previous state} *)

val get : context -> slot -> Value.t
(** @raise State.Unbound when the variable has no value yet. *)

val float : context -> slot -> float
(** A numeric variable as a float ([Int] coerces).
    @raise Value.Type_error on a non-numeric value. *)

val bool : context -> slot -> bool
val sym : context -> slot -> string

(** {1 Writing the next state}

    Later writes win, within a component and across components (in world
    order). A variable no component writes keeps its previous value.

    Cells are pointer-stable: a write that would not change a cell keeps
    the block already there, so a run allocates a cell only when its
    value changes, and the kernel and the trace recorder find the cells
    that changed by physical comparison. No code may therefore rely on a
    fresh block per write. *)

val set : context -> slot -> Value.t -> unit
(** Leaves the cell alone when it already holds [v] physically. *)

val set_float : context -> slot -> float -> unit
(** Leaves the cell alone when it holds a [Value.Float] with the same bits
    ([Int64.bits_of_float], never [Float.equal]: [0.] and [-0.], or two
    NaN payloads, are different values to a trace column). *)

val set_bool : context -> slot -> bool -> unit
(** Writes one of two shared [Value.Bool] blocks, so a flag allocates
    nothing. *)

(** {1 Components} *)

type t = {
  name : string;
  outputs : (string * Value.t) list;
      (** directly controlled variables, with initial values *)
  bind : binder -> context -> unit;
      (** resolve slots once per world, return the per-tick step *)
}

val make :
  name:string ->
  outputs:(string * Value.t) list ->
  (binder -> context -> unit) ->
  t

val constant : name:string -> (string * Value.t) list -> t
(** A component with no behaviour: holds constants (useful for parameters
    and for disabling a subsystem in ablation runs). *)

val controlled : t -> string list
(** Controlled-variable names, used to detect output conflicts. *)
