(** Simulation components: the agents of the simulated system.

    Each component declares the state variables it directly controls (with
    their initial values) and a binding function that resolves the names
    it reads and writes to frame slots once per world, returning the step
    that computes the next values of its variables from the *previous*
    frame. The kernel is double buffered, so a component can never observe
    another component's output before the subsequent state — the thesis's
    core timing assumption (§4.1.3, "updates to a state variable cannot be
    observed by agents that monitor the variable until the subsequent
    state"). *)

open Tl

type slot = int
type binder = string -> slot

type context = {
  mutable now : float;  (** simulation time of the state being computed *)
  dt : float;
  mutable prev : Frame.t;  (** the previous state: every read *)
  mutable next : Frame.t;  (** the state being computed: every write *)
  names : string array;  (** slot → variable name, for error messages *)
}

let get ctx s = Frame.get ctx.names ctx.prev s

(* The typed readers mirror [State.float]/[bool]/[sym], errors included;
   the common case reads the cell without the absence check. *)
let float ctx s =
  match ctx.prev.(s) with
  | Value.Float f -> f
  | Value.Int i -> float_of_int i
  | _ -> Value.to_float (get ctx s)

let bool ctx s = match ctx.prev.(s) with Value.Bool b -> b | _ -> Value.to_bool (get ctx s)

let sym ctx s =
  match get ctx s with
  | Value.Sym x -> x
  | v -> Value.type_error "variable %s: expected a symbol, got %a" ctx.names.(s) Value.pp v

(* A write that leaves the cell physically unchanged is skipped: the
   kernel copies and the trace recorder records only the cells that
   changed, and both detect a change by [!=]. *)
let set ctx s v = if ctx.next.(s) != v then ctx.next.(s) <- v

(* Bit for bit, never [Float.equal]: [0.] and [-0.], or two NaN payloads,
   are different values to a trace column. *)
let set_float ctx s x =
  match ctx.next.(s) with
  | Value.Float y when Int64.bits_of_float y = Int64.bits_of_float x -> ()
  | _ -> ctx.next.(s) <- Value.Float x

(* Shared booleans: writing a flag allocates nothing. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let set_bool ctx s b = set ctx s (if b then vtrue else vfalse)

type t = {
  name : string;
  outputs : (string * Value.t) list;  (** directly controlled variables, with initial values *)
  bind : binder -> context -> unit;
}

let make ~name ~outputs bind = { name; outputs; bind }

(** A component with no behaviour: holds constants (useful for parameters
    and for disabling a subsystem in ablation runs). *)
let constant ~name outputs = { name; outputs; bind = (fun _ _ -> ()) }

(** Controlled-variable names, used to detect output conflicts. *)
let controlled t = List.map fst t.outputs
