(** An injection plan: campaign seed + faults. Pure, closure-free data that
    marshals deterministically (it extends the scenario outcome-cache
    digest); interposer state is rebuilt fresh for every run. *)



type t = { seed : int; faults : Fault.t list }

val make : ?seed:int -> Fault.t list -> t
val empty : t
val is_empty : t -> bool

val frame_interposer :
  dt:float -> t -> slot:(string -> int option) -> now:float -> Tl.Frame.t -> unit
(** A stateful per-run frame transform; pass to [Sim.World.run ~transform]
    (via [Vehicle.System.simulate]) with [~slot:(Sim.World.slot world)].
    Each target is resolved to its slot once; fault [i] draws from a
    private PRNG seeded [Prng.derive seed i] and faults apply in plan
    order. *)

val interposer : dt:float -> t -> now:float -> Tl.State.t -> Tl.State.t
(** The same transform on [State.t] snapshots (for
    [Vehicle.System.run ~interpose]): identical values, one map round
    trip per tick. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
