(** Runtime fault models applied as signal interposers on component
    outputs. A fault is pure data (target, model, activation window); all
    per-run mutable state lives in a {!runtime} created fresh per
    simulation, keeping same-seed campaigns deterministic. Every model is
    one value-level function ({!interpose}); the kernel applies it to the
    target's frame slot ({!Plan.frame_interposer}) and {!apply} to a
    [State.t]. *)

open Tl

type model =
  | Stuck_at of Value.t  (** output frozen at a constant *)
  | Dropout_hold  (** output holds the last pre-fault value *)
  | Dropout_missing
      (** numeric output replaced by NaN; non-numeric targets degrade to
          hold-last *)
  | Delay of int  (** output delayed by [k] states *)
  | Noise of float  (** additive Gaussian noise, sigma in signal units *)
  | Drift of float  (** additive ramp, signal units per second *)
  | Spike of float * float  (** (magnitude, expected spikes per second) *)
  | Intermittent of float
      (** mean gate period, seconds: alternates passing / holding with
          exponentially distributed gate durations *)

type t = {
  target : string;
  model : model;
  from_t : float;
  until_t : float;
}

val make : ?from_t:float -> ?until_t:float -> target:string -> model -> t
(** Window defaults: active for the whole run. *)

val active : t -> float -> bool

val model_name : model -> string
val pp_model : Format.formatter -> model -> unit

val pp : Format.formatter -> t -> unit
(** Prints the [--inject] SPEC syntax; inverse of {!Spec.parse}. *)

val to_string : t -> string

type runtime

val runtime : seed:int -> t -> runtime
(** Fresh per-run interposer state (delay line, PRNG, hold/drift/gate). *)

val interpose : runtime -> dt:float -> now:float -> Value.t -> Value.t
(** The value-level core of every fault model: the value to record for the
    target's freshly computed value (the value itself when unfaulted). Call
    it on every tick the target has a value, inside the activation window
    or not. *)

val apply : runtime -> dt:float -> now:float -> State.t -> State.t
(** {!interpose} on one freshly computed [State.t] snapshot. A target
    absent from the state is a no-op. *)
