(** Assembly of the semi-autonomous automotive system (Fig. 5.1): the
    simulation world and the control graph used by ICPA. *)

open Tl
open Signals

let dt = 0.001
(* One simulation state lasts 1 ms, matching the thesis ("the time interval
   of one state"). *)

(** Default driver/HMI input values; scenarios override via events. *)
let driver_init =
  [
    (throttle_pedal, Value.Float 0.);
    (brake_pedal, Value.Float 0.);
    (steering_wheel_active, Value.Bool false);
    (hmi_go, Value.Bool false);
    (gear, Value.Sym "D");
    (acc_set_speed, Value.Float 5.0);
  ]
  @ List.concat_map
      (fun f ->
        [ (enabled f, Value.Bool false); (engage_request f, Value.Bool false) ])
      features

let driver events = Sim.Stimulus.component ~name:"DriverHMI" ~init:driver_init events

(** Build the full simulation world for one scenario run. Fresh component
    state every call. *)
let world ?(defects = Defects.as_evaluated) ?timing ?dynamics ~objects ~events () =
  Sim.World.make ~dt
    [
      driver events;
      Plant.lead_vehicle objects;
      Plant.sensors defects;
      Feature_ca.component defects;
      Feature_acc.component defects;
      Feature_rca.component defects;
      Feature_lca.component defects;
      Feature_pa.component defects;
      Arbiter.component ?timing defects;
      Plant.host ?dynamics defects;
      Plant.jerk_derivation ();
    ]

(** Simulate a scenario world for [duration] seconds; terminates early on
    collision, like the thesis's runs. [transform] is the frame-level
    fault-injection hook ({!Sim.World.run}), e.g.
    [Inject.Plan.frame_interposer]. *)
let simulate ?transform ?(duration = 20.0) world =
  Sim.World.run ~stop:collision ?transform ~until:duration world

(** Build and simulate a scenario world. [interpose] is a [State.t]
    snapshot transform (e.g. [Inject.Plan.interposer]) applied to every
    freshly computed state through {!Sim.World.state_transform}, so faulted
    signals are what the features, the arbiter and the monitors all observe
    one tick later. It converts every frame to a state and back; hot paths
    pass a frame-level transform to {!simulate} instead. *)
let run ?(defects = Defects.as_evaluated) ?timing ?dynamics ?interpose ?duration ~objects
    ~events () =
  let w = world ~defects ?timing ?dynamics ~objects ~events () in
  simulate ?transform:(Option.map (Sim.World.state_transform w) interpose) ?duration w

(* ------------------------------------------------------------------ *)
(* Control graph (Fig. 5.1) for the ICPA of Appendix C.                 *)

let agents =
  let feature_agent f =
    Kaos.Agent.make f
      ~monitors:
        [
          host_speed; object_detected; object_range; object_closing_speed;
          enabled f; engage_request f; acc_set_speed; gear;
        ]
      ~controls:[ active f; accel_req f; req_accel f; steer_req f; req_steer f ]
  in
  List.map feature_agent features
  @ [
      Kaos.Agent.make "Arbiter"
        ~monitors:
          (List.concat_map
             (fun f -> [ active f; accel_req f; req_accel f; steer_req f; req_steer f ])
             features
          @ [ throttle_pedal; brake_pedal; steering_wheel_active; host_speed; gear ])
        ~controls:
          ([ accel_cmd; accel_source; va_source; steer_cmd; steer_source; vst_source; driver_selected ]
          @ List.map selected features);
      Kaos.Agent.make ~kind:Kaos.Agent.Human "Driver"
        ~monitors:[ host_speed; object_range ]
        ~controls:
          ([ throttle_pedal; brake_pedal; steering_wheel_active; hmi_go; gear; acc_set_speed ]
          @ List.concat_map (fun f -> [ enabled f; engage_request f ]) features);
      Kaos.Agent.make ~kind:Kaos.Agent.Actuator "Powertrain" ~monitors:[ accel_cmd ]
        ~controls:[ host_accel; host_jerk; host_speed; host_pos ];
      Kaos.Agent.make ~kind:Kaos.Agent.Actuator "SteeringActuator"
        ~monitors:[ steer_cmd ] ~controls:[ "host_steer" ];
    ]

let agent name = List.find (fun a -> a.Kaos.Agent.name = name) agents

let graph =
  let open Icpa.Control_graph in
  let feature_nodes =
    List.concat_map
      (fun f ->
        [
          node Software_agent f;
          node Variable (accel_req f);
          node Variable (req_accel f);
          node Variable (steer_req f);
          node Variable (req_steer f);
          node Variable (active f);
          node Variable (enabled f);
          node Variable (engage_request f);
        ])
      features
  in
  let feature_edges =
    List.concat_map
      (fun f ->
        [
          (f, accel_req f);
          (f, req_accel f);
          (f, steer_req f);
          (f, req_steer f);
          (f, active f);
          (accel_req f, "Arbiter");
          (req_accel f, "Arbiter");
          (steer_req f, "Arbiter");
          (req_steer f, "Arbiter");
          (active f, "Arbiter");
          ("Driver", enabled f);
          ("Driver", engage_request f);
          (enabled f, f);
          (engage_request f, f);
        ])
      features
  in
  make
    ~nodes:
      (feature_nodes
      @ [
          node Software_agent "Arbiter";
          node Environment_agent "Driver";
          node Actuator "Powertrain";
          node Actuator "SteeringActuator";
          node Sensor "Accelerometer";
          node Sensor "SpeedSensor";
          node Sensor "ForwardRadar";
          node Variable accel_cmd;
          node Variable steer_cmd;
          node Variable va_source;
          node Variable vst_source;
          node Variable throttle_pedal;
          node Variable brake_pedal;
          node Variable steering_wheel_active;
          node Variable hmi_go;
          node Variable gear;
          node Variable object_detected;
          node Variable host_accel;
          node Variable host_jerk;
          node Variable host_speed;
          node Physical "vehicle_motion";
        ])
    ~edges:
      (feature_edges
      @ [
          ("Arbiter", accel_cmd);
          ("Arbiter", steer_cmd);
          ("Arbiter", va_source);
          ("Arbiter", vst_source);
          ("Driver", throttle_pedal);
          ("Driver", brake_pedal);
          ("Driver", steering_wheel_active);
          ("Driver", hmi_go);
          ("Driver", gear);
          (throttle_pedal, "Arbiter");
          (brake_pedal, "Arbiter");
          (steering_wheel_active, "Arbiter");
          (accel_cmd, "Powertrain");
          (steer_cmd, "SteeringActuator");
          ("Powertrain", "vehicle_motion");
          ("vehicle_motion", "Accelerometer");
          ("vehicle_motion", "SpeedSensor");
          ("vehicle_motion", "ForwardRadar");
          ("Accelerometer", host_accel);
          ("Accelerometer", host_jerk);
          ("SpeedSensor", host_speed);
          ("ForwardRadar", object_detected);
          (host_speed, "Arbiter");
          (object_detected, "CA");
          (object_detected, "ACC");
          (host_speed, "CA");
          (host_speed, "ACC");
        ])
