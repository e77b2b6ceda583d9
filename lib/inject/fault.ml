(** Runtime fault models, applied as signal interposers on the simulation
    snapshot (the fault-injection direction of Gleirscher & Kugele's
    pattern survey; cf. the Fig. 2.2 fault-tree branch "object detection
    misses object that is there").

    A fault is *pure data*: target signal, model, activation window, and
    (implicitly, via its position in a {!Plan}) a derived PRNG seed. All
    mutable per-run state lives in a {!runtime} created fresh for every
    simulation, which is what keeps same-seed campaigns bit-for-bit
    reproducible on the domain pool.

    Because the kernel is double-buffered, an interposed value is what every
    downstream reader — feature subsystems, the arbiter, the monitors —
    observes on the next tick. Faults on sensor outputs therefore behave
    exactly like sensor faults; faults on plant-owned integrator state would
    alter the physics itself and are not what campaigns target. *)

open Tl

type model =
  | Stuck_at of Value.t  (** output frozen at a constant *)
  | Dropout_hold  (** output holds the last pre-fault value *)
  | Dropout_missing
      (** numeric output replaced by NaN (a missing measurement); non-numeric
          targets degrade to hold-last *)
  | Delay of int  (** output delayed by [k] states *)
  | Noise of float  (** additive Gaussian noise, sigma in signal units *)
  | Drift of float  (** additive ramp, signal units per second *)
  | Spike of float * float
      (** [(magnitude, rate)]: one-state additive spikes, expected [rate]
          spikes per second *)
  | Intermittent of float
      (** mean gate period in seconds: the signal alternates between passing
          and holding, with exponentially distributed gate durations *)

type t = {
  target : string;  (** the interposed state variable *)
  model : model;
  from_t : float;  (** activation window start, seconds (inclusive) *)
  until_t : float;  (** activation window end, seconds *)
}

let make ?(from_t = 0.) ?(until_t = infinity) ~target model =
  { target; model; from_t; until_t }

let active f now = now >= f.from_t -. 1e-12 && now <= f.until_t +. 1e-12

let model_name = function
  | Stuck_at _ -> "stuck"
  | Dropout_hold -> "hold"
  | Dropout_missing -> "nan"
  | Delay _ -> "delay"
  | Noise _ -> "noise"
  | Drift _ -> "drift"
  | Spike _ -> "spike"
  | Intermittent _ -> "flicker"

let pp_value ppf = function
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Float f -> Fmt.pf ppf "%g" f
  | Value.Sym s -> Fmt.string ppf s

let pp_model ppf = function
  | Stuck_at v -> Fmt.pf ppf "stuck=%a" pp_value v
  | Dropout_hold -> Fmt.string ppf "hold"
  | Dropout_missing -> Fmt.string ppf "nan"
  | Delay k -> Fmt.pf ppf "delay=%d" k
  | Noise sigma -> Fmt.pf ppf "noise=%g" sigma
  | Drift rate -> Fmt.pf ppf "drift=%g" rate
  | Spike (mag, rate) -> Fmt.pf ppf "spike=%g/%g" mag rate
  | Intermittent period -> Fmt.pf ppf "flicker=%g" period

(** The [--inject] SPEC syntax: [MODEL:TARGET[@FROM..UNTIL]]. *)
let pp ppf f =
  Fmt.pf ppf "%a:%s" pp_model f.model f.target;
  if f.from_t > 0. || f.until_t < infinity then
    if f.until_t = infinity then Fmt.pf ppf "@@%g.." f.from_t
    else Fmt.pf ppf "@@%g..%g" f.from_t f.until_t

let to_string f = Fmt.str "%a" pp f

(* ------------------------------------------------------------------ *)
(* Per-run mutable state                                                *)

type runtime = {
  fault : t;
  gen : Prng.t;
  queue : Value.t Queue.t;  (** delay line (fed every tick, window or not) *)
  mutable last : Value.t;
      (** last value passed through un-faulted; {!Frame.absent} for none *)
  mutable drift : float;  (** accumulated ramp while active *)
  mutable gate_passing : bool;  (** intermittent: currently transparent? *)
  mutable gate_left : float;  (** seconds until the gate toggles *)
}

let runtime ~seed fault =
  {
    fault;
    gen = Prng.create seed;
    queue = Queue.create ();
    last = Frame.absent;
    drift = 0.;
    gate_passing = true;
    gate_left = 0.;
  }

let perturb v f =
  match v with
  | Value.Float x -> Value.Float (x +. f)
  | Value.Int x -> Value.Float (float_of_int x +. f)
  | v -> v (* non-numeric targets pass through unperturbed *)

let hold_last rt v = if rt.last == Frame.absent then v else rt.last

(* Passing a value allocates nothing, and an unchanged one skips the
   write barrier too. *)
let pass rt v = if rt.last != v then rt.last <- v

(* The delay line is fed unconditionally so that a window-activated delay
   has history to serve from its first active tick. *)
let delayed rt k v =
  Queue.push v rt.queue;
  if Queue.length rt.queue > k then Queue.pop rt.queue else Queue.peek rt.queue

(** [interpose rt ~dt ~now v] — the value-level core of every fault model:
    the value to record for the target's freshly computed value [v] at time
    [now] ([v] itself when the fault leaves it alone). Called on every tick
    the target has a value, window or not: the delay line, hold value and
    drift track the signal outside the window too. *)
let interpose rt ~dt ~now v =
  if not (active rt.fault now) then begin
    (match rt.fault.model with Delay k -> ignore (delayed rt k v) | _ -> ());
    pass rt v;
    rt.drift <- 0.;
    v
  end
  else
    match rt.fault.model with
    | Stuck_at x -> x
    | Dropout_hold -> hold_last rt v
    | Dropout_missing -> (
        match v with
        | Value.Float _ | Value.Int _ -> Value.Float Float.nan
        | _ -> hold_last rt v)
    | Delay k -> delayed rt k v
    | Noise sigma -> perturb v (sigma *. Prng.gaussian rt.gen)
    | Drift rate ->
        rt.drift <- rt.drift +. (rate *. dt);
        perturb v rt.drift
    | Spike (mag, rate) -> if Prng.float rt.gen < rate *. dt then perturb v mag else v
    | Intermittent period ->
        rt.gate_left <- rt.gate_left -. dt;
        if rt.gate_left <= 0. then begin
          rt.gate_passing <- not rt.gate_passing;
          (* exponentially distributed gate duration, mean [period] *)
          rt.gate_left <-
            -.period *. Float.log (Float.max (1. -. Prng.float rt.gen) 0x1p-53)
        end;
        if rt.gate_passing then begin
          pass rt v;
          v
        end
        else hold_last rt v

(** [apply rt ~dt ~now state] — {!interpose} on one freshly computed
    [State.t] snapshot. A target absent from the state is a no-op, so a
    plan written for the vehicle world is harmless on a mini-world that
    lacks the signal. *)
let apply rt ~dt ~now state =
  match State.find_opt rt.fault.target state with
  | None -> state
  | Some v ->
      let v' = interpose rt ~dt ~now v in
      if v' == v then state else State.set rt.fault.target v' state
