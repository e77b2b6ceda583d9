(** The simulation kernel: synchronous, discrete-time, double-buffered.

    At each tick every component reads the frame of tick [i−1] and writes
    its outputs into the frame of tick [i]; variables not written keep
    their previous values. The recorded trace therefore has exactly the
    one-state observation delay assumed by the thesis's goal semantics. *)

open Tl

exception Conflict of string
(** Two components declare direct control of the same variable. The thesis
    relaxes KAOS's strict single-controller rule (§4.2), so conflicts are
    only rejected when [check_conflicts] is requested. *)

type t = {
  dt : float;
  names : string array;  (** slot → variable *)
  slots : (string, int) Hashtbl.t;  (** variable → slot *)
  initial : Frame.t;
  steps : (Component.context -> unit) array;  (** bound, in world order *)
  mutable ran : bool;
      (** the components' state lives in their bound steps: a second run
          would start where the first ended *)
}

let make ?(check_conflicts = true) ?(extra_init = []) ~dt components =
  if check_conflicts then begin
    let seen = Hashtbl.create 64 in
    List.iter
      (fun c ->
        List.iter
          (fun v ->
            match Hashtbl.find_opt seen v with
            | Some other ->
                raise
                  (Conflict
                     (Fmt.str "variable %s controlled by both %s and %s" v other
                        c.Component.name))
            | None -> Hashtbl.add seen v c.Component.name)
          (Component.controlled c))
      components
  end;
  let slots = Hashtbl.create 64 and names = ref [] and n = ref 0 in
  let bound = ref false in
  let intern name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
        if !bound then invalid_arg ("Sim.World: slot bound after make: " ^ name);
        let s = !n in
        Hashtbl.add slots name s;
        names := name :: !names;
        incr n;
        s
  in
  let init = extra_init @ List.concat_map (fun c -> c.Component.outputs) components in
  List.iter (fun (name, _) -> ignore (intern name)) init;
  let steps = Array.of_list (List.map (fun c -> c.Component.bind intern) components) in
  bound := true;
  let names = Array.of_list (List.rev !names) in
  let initial = Frame.make !n in
  List.iter (fun (name, v) -> initial.(Hashtbl.find slots name) <- v) init;
  { dt; names; slots; initial; steps; ran = false }

let slot world name = Hashtbl.find_opt world.slots name

(* Every component reads [ctx.prev] and writes [ctx.next]. *)
let run_steps world ctx =
  for k = 0 to Array.length world.steps - 1 do
    world.steps.(k) ctx
  done

let step world now prev_state =
  let prev = Frame.of_state world.names prev_state in
  let next = Array.copy prev in
  run_steps world { Component.now; dt = world.dt; prev; next; names = world.names };
  let st = ref prev_state in
  Array.iteri
    (fun s v -> if v != prev.(s) then st := State.set world.names.(s) v !st)
    next;
  !st

let state_transform world f ~now frame =
  let st = Frame.to_state world.names frame in
  let st' = f ~now st in
  if st' != st then Frame.load world.names st' frame

(* [next] becomes a copy of [prev]. [next] holds the state before [prev],
   and cells are pointer-stable, so only the cells that changed in the
   last tick are written. *)
let copy_changed (prev : Frame.t) (next : Frame.t) =
  for s = 0 to Array.length prev - 1 do
    let v = Array.unsafe_get prev s in
    if Array.unsafe_get next s != v then Array.unsafe_set next s v
  done

let run ?stop ?transform ~until world : Trace.t =
  if world.ran then invalid_arg "Sim.World.run: this world has already run";
  world.ran <- true;
  let n_max = int_of_float (Float.ceil (until /. world.dt)) in
  let stop =
    Option.map
      (fun v ->
        match slot world v with Some s -> s | None -> raise (State.Unbound v))
      stop
  in
  let stopped frame =
    match stop with None -> false | Some s -> Value.to_bool (Frame.get world.names frame s)
  in
  let buf = Trace.Builder.of_slots ~hint:(n_max + 1) ~dt:world.dt world.names in
  (* Both frames start as the initial state; each tick swaps them. *)
  let ctx =
    {
      Component.now = 0.;
      dt = world.dt;
      prev = Array.copy world.initial;
      next = Array.copy world.initial;
      names = world.names;
    }
  in
  Trace.Builder.add_frame buf ctx.next;
  let rec go i =
    if i <= n_max then begin
      let prev = ctx.next in
      ctx.next <- ctx.prev;
      ctx.prev <- prev;
      copy_changed prev ctx.next;
      ctx.now <- float_of_int i *. world.dt;
      run_steps world ctx;
      (match transform with None -> () | Some f -> f ~now:ctx.now ctx.next);
      Trace.Builder.add_frame buf ctx.next;
      if not (stopped ctx.next) then go (i + 1)
    end
  in
  go 1;
  Trace.Builder.finish buf
