(** Scripted stimuli: driver and environment inputs for evaluation
    scenarios, expressed as timed set-events on input variables. *)

open Tl

type event = { at : float; var : string; value : Value.t }

let set at var value = { at; var; value }
let press at var = { at; var; value = Value.Bool true }
let release at var = { at; var; value = Value.Bool false }

(** [component ~name ~init events] — a component that owns the scripted
    variables: each variable takes its initial value until an event fires,
    then holds the event value (later events override earlier ones). Events
    need not be sorted. Binding resolves every event's variable once; each
    tick fires the due events from a cursor into the time-sorted script. *)
let component ~name ~init events : Component.t =
  (* An event at NaN is never due. *)
  let events =
    List.stable_sort
      (fun a b -> Float.compare a.at b.at)
      (List.filter (fun e -> not (Float.is_nan e.at)) events)
  in
  let at = Array.of_list (List.map (fun e -> e.at) events) in
  let values = Array.of_list (List.map (fun e -> e.value) events) in
  let fired = ref 0 in
  Component.make ~name ~outputs:init (fun slot ->
      let slots = Array.of_list (List.map (fun e -> slot e.var) events) in
      fun ctx ->
        let due = ctx.Component.now +. 1e-12 in
        while !fired < Array.length at && at.(!fired) <= due do
          Component.set ctx slots.(!fired) values.(!fired);
          incr fired
        done)

(** A float signal driven by a function of time (e.g. a lead vehicle's
    scripted speed profile). *)
let signal ~name ~var f : Component.t =
  Component.make ~name
    ~outputs:[ (var, Value.Float (f 0.)) ]
    (fun slot ->
      let s = slot var in
      fun ctx -> Component.set_float ctx s (f ctx.Component.now))
