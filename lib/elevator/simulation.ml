(** A runnable simulation of the distributed elevator, with the Table 4.4
    subgoals implemented as command guards in the controllers and the
    Ch. 4 goals monitored over the resulting trace.

    Variables follow [Goals]' conventions; physical quantities:
    - ["door_position"] ∈ [0, 1], 1 = fully closed;
    - ["elevator_position"] metres above floor 1 (= cab top [etp]);
    - ["drive_speed"] m/s (positive = up). *)

open Tl

let dt = 0.01
let floor_height = 4.0
let floors = 3
let floor_pos f = float_of_int (f - 1) *. floor_height
let dwell_time = 3.0
let door_rate = 0.5 (* fraction of travel per second *)
let drive_accel = 1.0
let drive_speed_max = 1.0

let nearest_floor pos =
  let f = 1 + int_of_float (Float.round (pos /. floor_height)) in
  max 1 (min floors f)

let at_floor pos f = Float.abs (pos -. floor_pos f) < 0.02

(* ------------------------------------------------------------------ *)
(* Physical components                                                  *)

let door_motor () =
  Sim.Component.make ~name:"DoorMotor"
    ~outputs:[ ("door_position", Value.Float 0.) ]
    (fun slot ->
      let door_position = slot "door_position" in
      let passenger_blocking = slot "passenger_blocking" and dmc = slot "dmc" in
      fun ctx ->
        let open Sim.Component in
        let p = float ctx door_position in
        let blocked = bool ctx passenger_blocking in
        let cmd = sym ctx dmc in
        let p' =
          match cmd with
          | "CLOSE" when not blocked -> Float.min 1. (p +. (door_rate *. ctx.dt))
          | "CLOSE" -> p (* an obstruction physically prevents closing *)
          | _ -> Float.max 0. (p -. (door_rate *. ctx.dt))
        in
        set_float ctx door_position p')

(** The drive moves the cab toward [target_of]'s position (bound once per
    world, read every tick). *)
let drive ~(target_of : Sim.Component.binder -> Sim.Component.context -> float) () =
  Sim.Component.make ~name:"Drive"
    ~outputs:
      [ ("drive_speed", Value.Float 0.); ("elevator_position", Value.Float 0.) ]
    (fun slot ->
      let drive_speed = slot "drive_speed" in
      let elevator_position = slot "elevator_position" in
      let drc = slot "drc" and eb_applied = slot "eb_applied" in
      let target_of = target_of slot in
      fun ctx ->
        let open Sim.Component in
        let v = float ctx drive_speed in
        let pos = float ctx elevator_position in
        let cmd = sym ctx drc in
        let eb = bool ctx eb_applied in
        let target = target_of ctx in
        let want =
          (* approach profile: cap speed so the cab can stop at the target
             with the available deceleration (v = sqrt(2·a·d)) *)
          let dist = Float.abs (target -. pos) in
          let cap = Float.min drive_speed_max (Float.sqrt (2. *. drive_accel *. dist)) in
          if eb || cmd = "STOP" then 0.
          else if target > pos +. 0.01 then cap
          else if target < pos -. 0.01 then -.cap
          else 0.
        in
        let accel = if eb then 4. *. drive_accel else drive_accel in
        let dv = accel *. ctx.dt in
        let v' =
          if Float.abs (want -. v) <= dv then want
          else v +. Float.copy_sign dv (want -. v)
        in
        set_float ctx drive_speed v';
        set_float ctx elevator_position (pos +. (v' *. ctx.dt)))

(** Sensors derive the sensed variables of the goal formulas from physical
    quantities (the sensor stage of Fig. 4.4). *)
let sensors () =
  Sim.Component.make ~name:"Sensors"
    ~outputs:
      [
        ("dc", Value.Bool false);
        ("db", Value.Bool false);
        ("es_stopped", Value.Bool true);
        ("drs_stopped", Value.Bool true);
        ("etp", Value.Float 0.);
        ("ew", Value.Float 0.);
      ]
    (fun slot ->
      let door_position = slot "door_position" and drive_speed = slot "drive_speed" in
      let elevator_position = slot "elevator_position" in
      let passenger_blocking = slot "passenger_blocking" in
      let passenger_load = slot "passenger_load" in
      let dc = slot "dc" and db = slot "db" and es_stopped = slot "es_stopped" in
      let drs_stopped = slot "drs_stopped" and etp = slot "etp" and ew = slot "ew" in
      fun ctx ->
        let open Sim.Component in
        let doorp = float ctx door_position in
        let speed = float ctx drive_speed in
        let pos = float ctx elevator_position in
        let blocking = bool ctx passenger_blocking in
        let load = float ctx passenger_load in
        set_bool ctx dc (doorp >= 0.999);
        set_bool ctx db (blocking && doorp < 0.999);
        set_bool ctx es_stopped (Float.abs speed < 1e-3);
        set_bool ctx drs_stopped (Float.abs speed < 1e-3);
        set_float ctx etp pos;
        set_float ctx ew load)

(* ------------------------------------------------------------------ *)
(* Software agents                                                      *)

(* The floor of a ["dispatch_request"] value. *)
let requested_floor = function Value.Int f -> f | _ -> 1

(** The dispatch controller serves latched hall and car calls
    (Fig. 4.5's DispatchController): it keeps the current destination until
    the cab has arrived and opened its doors there (publishing
    ["served_floor"] so the button controllers clear the call), then moves
    to the nearest outstanding call. *)
let dispatch_controller () =
  Sim.Component.make ~name:"DispatchController"
    ~outputs:[ ("dispatch_request", Value.Int 1); ("served_floor", Value.Int 0) ]
    (fun slot ->
      let elevator_position = slot "elevator_position" in
      let door_position = slot "door_position" and es_stopped = slot "es_stopped" in
      let dispatch_request = slot "dispatch_request" in
      let served_floor = slot "served_floor" in
      let called = Buttons.called slot ~floors in
      fun ctx ->
        let open Sim.Component in
        let pos = float ctx elevator_position in
        let door_open = float ctx door_position < 0.5 in
        let stopped = bool ctx es_stopped in
        let target = requested_floor (get ctx dispatch_request) in
        let serving_now = at_floor pos target && stopped && door_open in
        let served = if serving_now then target else 0 in
        let outstanding = Buttons.outstanding ~floors ~called:(called ctx) in
        let target' =
          if serving_now then target
          else
            match outstanding ~from:(nearest_floor pos) with
            | [] -> target
            | f :: _ ->
                (* keep the current destination until served, unless no call
                   remains for it *)
                let target_called = List.mem target (outstanding ~from:target) in
                if target_called && not (at_floor pos target) then target else f
        in
        set ctx dispatch_request (Value.Int target');
        set ctx served_floor (Value.Int served))

let door_controller () =
  let dwell_left = ref 0. in
  Sim.Component.make ~name:"DoorController"
    ~outputs:[ ("dmc", Value.Sym "OPEN") ]
    (fun slot ->
      let es_stopped = slot "es_stopped" and drc = slot "drc" and db = slot "db" in
      let elevator_position = slot "elevator_position" in
      let dispatch_request = slot "dispatch_request" in
      let dmc = slot "dmc" and dc = slot "dc" in
      let opened = Value.Sym "OPEN" and closed = Value.Sym "CLOSE" in
      fun ctx ->
        let open Sim.Component in
        let moving = not (bool ctx es_stopped) in
        let commanded_go = sym ctx drc = "GO" in
        let blocked = bool ctx db in
        let pos = float ctx elevator_position in
        let target = requested_floor (get ctx dispatch_request) in
        if blocked then begin
          (* door-reversal goal (priority over the running example) *)
          dwell_left := dwell_time;
          set ctx dmc opened
        end
        else if moving || commanded_go then
          (* Table 4.4 subgoal: close when moving or commanded to move *)
          set ctx dmc closed
        else if at_floor pos target then begin
          if sym ctx dmc = "CLOSE" && bool ctx dc then
            (* arrived with door closed: begin the dwell *)
            dwell_left := dwell_time
          else dwell_left := !dwell_left -. ctx.dt;
          set ctx dmc (if !dwell_left > 0. then opened else closed)
        end
        else set ctx dmc closed)

let drive_controller () =
  Sim.Component.make ~name:"DriveController"
    ~outputs:[ ("drc", Value.Sym "STOP") ]
    (fun slot ->
      let dc = slot "dc" and dmc = slot "dmc" and drc = slot "drc" and ew = slot "ew" in
      let elevator_position = slot "elevator_position" in
      let dispatch_request = slot "dispatch_request" in
      let stop = Value.Sym "STOP" and go = Value.Sym "GO" in
      fun ctx ->
        let open Sim.Component in
        let door_open = not (bool ctx dc) in
        let door_commanded_open = sym ctx dmc = "OPEN" in
        let pos = float ctx elevator_position in
        let target = requested_floor (get ctx dispatch_request) in
        let near_limit =
          pos
          >= Icpa_tables.hoistway_upper_limit
             -. (Icpa_tables.max_stopping_distance +. Icpa_tables.safety_margin)
        in
        let overweight = float ctx ew > 600. in
        if door_open || door_commanded_open || near_limit || overweight then
          (* Table 4.4 subgoal + hoistway primary subgoal *)
          set ctx drc stop
        else if not (at_floor pos target) then set ctx drc go
        else set ctx drc stop)

let emergency_brake () =
  Sim.Component.make ~name:"EmergencyBrake"
    ~outputs:[ ("eb_applied", Value.Bool false) ]
    (fun slot ->
      let etp = slot "etp" and eb_applied = slot "eb_applied" in
      fun ctx ->
        let open Sim.Component in
        let pos = float ctx etp in
        let applied = bool ctx eb_applied in
        (* latches once applied: hoistway secondary subgoal *)
        let fire =
          applied
          || pos
             >= Icpa_tables.hoistway_upper_limit
                -. Icpa_tables.max_emergency_braking_distance
        in
        set_bool ctx eb_applied fire)

(* ------------------------------------------------------------------ *)
(* Assembled system                                                     *)

type config = {
  passenger_events : Sim.Stimulus.event list;
  duration : float;
}

(** A momentary button press (held for 0.2 s). *)
let press_button t var =
  [ Sim.Stimulus.press t var; Sim.Stimulus.release (t +. 0.2) var ]

let default_config =
  {
    passenger_events =
      press_button 1.0 (Buttons.car_press 3)
      @ [
          Sim.Stimulus.set 20.0 "passenger_blocking" (Value.Bool true);
          Sim.Stimulus.set 21.5 "passenger_blocking" (Value.Bool false);
        ]
      @ press_button 26.0 (Buttons.hall_press 1 Buttons.Up)
      @ [ Sim.Stimulus.set 45.0 "passenger_load" (Value.Float 650.) ];
    duration = 55.0;
  }

let passenger events =
  Sim.Stimulus.component ~name:"Passenger"
    ~init:
      ([
         ("passenger_blocking", Value.Bool false);
         ("passenger_load", Value.Float 150.);
       ]
      @ Buttons.press_inputs ~floors)
    events

let world config =
  let target_of slot =
    let dispatch_request = slot "dispatch_request" in
    fun ctx ->
      match Sim.Component.get ctx dispatch_request with
      | Value.Int f -> floor_pos f
      | _ -> 0.
  in
  Sim.World.make ~dt
    (passenger config.passenger_events
     :: Buttons.all ~floors
    @ [
        dispatch_controller ();
        door_controller ();
        drive_controller ();
        door_motor ();
        drive ~target_of ();
        sensors ();
        emergency_brake ();
      ])

(** Run the elevator and return the recorded trace. *)
let run ?(config = default_config) () = Sim.World.run ~until:config.duration (world config)

(** Monitor the Ch. 4 goals over a trace; returns (goal name, violations). *)
let monitor_goals trace =
  let goals =
    [
      Goals.door_closed_or_stopped;
      Goals.close_door_when_moving_or_moved;
      Goals.stop_elevator_when_door_open_or_opened;
      Goals.door_reversal;
      Goals.below_hoistway_limit ~hoistway_upper_limit:Icpa_tables.hoistway_upper_limit;
      Goals.drive_stopped_when_overweight ~weight_threshold:600.;
    ]
  in
  List.map
    (fun (g : Kaos.Goal.t) ->
      let ok = Rtmon.Incremental.run_trace g.formal trace in
      (g.name, Rtmon.Violation.of_series ~dt:(Trace.dt trace) ok))
    goals
