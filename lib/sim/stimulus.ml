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
  let events = List.stable_sort (fun a b -> Float.compare a.at b.at) events in
  let fired = ref 0 in
  Component.make ~name ~outputs:init (fun slot ->
      (* An event at NaN is never due. *)
      let script =
        Array.of_list
          (List.filter_map
             (fun e ->
               if Float.is_nan e.at then None else Some (e.at, slot e.var, e.value))
             events)
      in
      fun ctx ->
        let rec fire () =
          if !fired < Array.length script then begin
            let at, s, v = script.(!fired) in
            if at <= ctx.Component.now +. 1e-12 then begin
              Component.set ctx s v;
              incr fired;
              fire ()
            end
          end
        in
        fire ())

(** A float signal driven by a function of time (e.g. a lead vehicle's
    scripted speed profile). *)
let signal ~name ~var f : Component.t =
  Component.make ~name
    ~outputs:[ (var, Value.Float (f 0.)) ]
    (fun slot ->
      let s = slot var in
      fun ctx -> Component.set_float ctx s (f ctx.Component.now))
