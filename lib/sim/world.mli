(** The simulation kernel: synchronous, discrete-time, double-buffered.

    {!make} interns every variable of the world — initial values, each
    component's outputs, and every name a component binds — to an integer
    slot, and binds every component once. A run then keeps two frames
    ({!Tl.Frame}), the previous and the next state, and one
    {!Component.context}. At each tick the two are swapped and the next
    frame becomes a copy of the previous one (so variables not written
    keep their values): it held the state before, and cells are
    pointer-stable ({!Component.set_float}), so only the cells that
    changed are copied. Every component then reads the previous frame and
    writes the next one. The recorded trace therefore has exactly the
    one-state observation delay assumed by the thesis's goal semantics,
    and a tick performs no string, hash-table or map operation.

    A world runs once. Its components keep their state (stimulus cursors,
    integrators, latches) in the steps bound by {!make}, so a second run
    would start where the first ended: build a fresh world per run.

    {!step} and {!state_transform} are [State.t] adapters over the same
    kernel, for callers that hold states rather than frames. *)

open Tl

exception Conflict of string
(** Two components declare direct control of the same variable. The thesis
    relaxes KAOS's strict single-controller rule (§4.2), so conflicts are
    only rejected when [check_conflicts] is true (the default). *)

type t

val make :
  ?check_conflicts:bool ->
  ?extra_init:(string * Value.t) list ->
  dt:float ->
  Component.t list ->
  t
(** Intern the variables and bind every component, in list order (later
    initial values and later writers win).
    @raise Conflict per [check_conflicts]. *)

val slot : t -> string -> Component.slot option
(** The slot of a variable of the world, if it has one. *)

val run :
  ?stop:string ->
  ?transform:(now:float -> Frame.t -> unit) ->
  until:float ->
  t ->
  Trace.t
(** Simulate from time 0 to [until] seconds, recording every state (the
    initial state is state 0 at time 0); frames go straight into the
    trace's slot-bound columns. [stop] names a boolean variable: the run
    ends early on the first freshly computed state where it is true (the
    thesis's runs end early on collision); that state is included.

    [transform] rewrites every freshly computed frame in place before it
    is recorded or tested by [stop] — the runtime fault-injection hook
    ({!Inject.Plan.frame_interposer}): with the double-buffered kernel, an
    interposed value is exactly what every component and monitor observes
    on the following tick. The initial state is not transformed.
    @raise Tl.State.Unbound when [stop] names no variable of the world.
    @raise Invalid_argument when the world has already run. *)

val step : t -> float -> State.t -> State.t
(** [step world now prev] — the state at time [now] from the previous
    state: [prev] with every variable the components write rebound. A
    [State.t] adapter over one kernel tick. *)

val state_transform :
  t -> (now:float -> State.t -> State.t) -> now:float -> Frame.t -> unit
(** [state_transform world f] — [f] as a [transform] for {!run}: each frame
    is viewed as a state, passed through [f], and loaded back. Variables
    [f] removes become absent; variables it adds outside the world's
    slots are dropped. *)
