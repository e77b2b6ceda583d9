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
  { dt; names; slots; initial; steps }

let slot world name = Hashtbl.find_opt world.slots name

(* One tick: [next] starts as [prev]; every component reads [prev] and
   writes [next]. *)
let tick world now prev next =
  Array.blit prev 0 next 0 (Array.length prev);
  let ctx = { Component.now; dt = world.dt; prev; next; names = world.names } in
  Array.iter (fun step -> step ctx) world.steps

let step world now prev_state =
  let prev = Frame.of_state world.names prev_state in
  let next = Array.copy prev in
  tick world now prev next;
  let st = ref prev_state in
  Array.iteri
    (fun s v -> if v != prev.(s) then st := State.set world.names.(s) v !st)
    next;
  !st

let state_transform world f ~now frame =
  let st = Frame.to_state world.names frame in
  let st' = f ~now st in
  if st' != st then Frame.load world.names st' frame

let run ?stop ?transform ~until world : Trace.t =
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
  Trace.Builder.add_frame buf world.initial;
  let rec go i prev next =
    if i <= n_max then begin
      let now = float_of_int i *. world.dt in
      tick world now prev next;
      Option.iter (fun f -> f ~now next) transform;
      Trace.Builder.add_frame buf next;
      if not (stopped next) then go (i + 1) next prev
    end
  in
  go 1 (Array.copy world.initial) (Frame.make (Array.length world.names));
  Trace.Builder.finish buf
