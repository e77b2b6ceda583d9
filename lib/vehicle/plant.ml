(** The physical substrate replacing CarSim®: lead/rear objects, host
    longitudinal dynamics, object sensors and derived jerk signals.

    Host acceleration tracks the arbiter's command through a second-order
    underdamped response (ωn = 30 rad/s, ζ = 0.30): powertrain/brake
    hydraulics plus suspension pitch rebound. The rebound is what makes a
    cancelled hard brake overshoot past +2 m/s² — the mechanism behind the
    thesis's vehicle-level goal-1/goal-2 violations that no command-level
    subgoal predicts (§5.4.1). *)

open Tl
open Signals

type dynamics = { omega_n : float; zeta : float }

(** The default actuation response: ωn = 30 rad/s, ζ = 0.30 — underdamped
    enough that a cancelled hard brake rebounds past +2 m/s² (§5.4.1). *)
let default_dynamics = { omega_n = 30.0; zeta = 0.30 }

type objects = {
  lead_start : float;  (** initial position of the forward object, m *)
  lead_profile : float -> float;  (** lead speed as a function of time *)
  rear_start : float;  (** position of the object behind the host, m *)
}

let stationary_ahead gap = { lead_start = gap; lead_profile = (fun _ -> 0.); rear_start = -1000. }

let lead_vehicle objects =
  Sim.Component.make ~name:"LeadVehicle"
    ~outputs:
      [
        (lead_pos, Value.Float objects.lead_start);
        (lead_speed, Value.Float (objects.lead_profile 0.));
        (rear_pos, Value.Float objects.rear_start);
      ]
    (fun slot ->
      let lead_pos = slot lead_pos and lead_speed = slot lead_speed in
      fun ctx ->
        let open Sim.Component in
        let p = float ctx lead_pos in
        let v = objects.lead_profile ctx.now in
        set_float ctx lead_pos (p +. (v *. ctx.dt));
        set_float ctx lead_speed v)

(* The host's integrator state, all floats so that it is stored unboxed. *)
type host_state = {
  mutable jerk_state : float;  (** da/dt of the second-order response *)
  mutable creep_left : float;  (** seconds of leaked creep torque left *)
}

(** Host longitudinal dynamics, including the engage-creep defect
    (Fig. 5.15) and collision detection (the thesis's early-termination
    condition). *)
let host ?(dynamics = default_dynamics) (defects : Defects.t) =
  let { omega_n; zeta } = dynamics in
  let st = { jerk_state = 0.; creep_left = 0. } in
  Sim.Component.make ~name:"HostDynamics"
    ~outputs:
      [
        (host_pos, Value.Float 0.);
        (host_speed, Value.Float 0.);
        (host_accel, Value.Float 0.);
        (host_jerk, Value.Float 0.);
        (collision, Value.Bool false);
      ]
    (fun slot ->
      let host_pos = slot host_pos and host_speed = slot host_speed in
      let host_accel = slot host_accel and host_jerk = slot host_jerk in
      let collision = slot collision and accel_cmd = slot accel_cmd in
      let acc_engage = slot (engage_request "ACC") and acc_active = slot (active "ACC") in
      let gear = slot gear and accel_source = slot accel_source in
      let lead_pos = slot lead_pos and rear_pos = slot rear_pos in
      fun ctx ->
        let open Sim.Component in
        let dt = ctx.dt in
        let a = float ctx host_accel in
        let v = float ctx host_speed in
        let p = float ctx host_pos in
        let u = float ctx accel_cmd in
        (* Defect: a failed ACC engage attempt at standstill leaks a creep
           torque into the powertrain for a few seconds. *)
        if
          defects.Defects.powertrain_creep_on_engage
          && bool ctx acc_engage
          && Float.abs v < 0.05
          && not (bool ctx acc_active)
        then st.creep_left <- 3.0;
        let creep =
          if st.creep_left > 0. then begin
            st.creep_left <- st.creep_left -. dt;
            0.8
          end
          else 0.
        in
        let u = u +. creep in
        (* Second-order response; [jerk_state] is da/dt. *)
        let s = st.jerk_state in
        let s' =
          s +. ((omega_n *. omega_n *. (u -. a)) -. (2. *. zeta *. omega_n *. s)) *. dt
        in
        st.jerk_state <- s';
        let a' = a +. (s' *. dt) in
        (* Standing still with no drive torque (or with the brake applied
           against the direction of travel): friction holds the vehicle. *)
        let v' = v +. (a' *. dt) in
        (* The brake controller holds the vehicle at standstill against
           commands opposing the direction of travel — except that autonomous
           torque requests bypass the standstill hold (the plant-side face of
           the no-standstill-clamp defect): a subsystem commanding negative
           acceleration at standstill pushes the vehicle backward through
           zero, the Fig. 5.11 negative speed. *)
        let braking_demand = if sym ctx gear = "R" then u >= -0.05 else u <= 0.05 in
        let hold_bypassed =
          defects.Defects.acc_no_standstill_clamp
          && sym ctx accel_source <> "Driver"
          && Float.abs u >= 0.05
        in
        (* The capture band must exceed the largest per-step Δv (hard braking
           changes v by ~9 mm/s per millisecond state). *)
        let held =
          Float.abs v' < 0.02
          && (Float.abs u < 0.05 || (braking_demand && not hold_bypassed))
        in
        let v' = if held then 0. else v' in
        let p' = p +. (v' *. dt) in
        let lead = float ctx lead_pos in
        let rear = float ctx rear_pos in
        let hit = p' >= lead || p' <= rear in
        set_float ctx host_pos p';
        set_float ctx host_speed v';
        set_float ctx host_accel a';
        set_float ctx host_jerk s';
        set_bool ctx collision hit)

(** Forward and rear object sensors. The forward radar has a 2 m minimum
    range; with the dropout defect, objects closer than that vanish — the
    Fig. 2.2 fault-tree branch "object detection misses object that is
    there". *)
let sensors (defects : Defects.t) =
  Sim.Component.make ~name:"ObjectSensors"
    ~outputs:
      [
        (object_detected, Value.Bool false);
        (object_range, Value.Float 1000.);
        (object_closing_speed, Value.Float 0.);
        (rear_object_detected, Value.Bool false);
        (rear_range, Value.Float 1000.);
      ]
    (fun slot ->
      let object_detected = slot object_detected and object_range = slot object_range in
      let object_closing_speed = slot object_closing_speed in
      let rear_object_detected = slot rear_object_detected in
      let rear_range = slot rear_range in
      let lead_pos = slot lead_pos and host_pos = slot host_pos in
      let host_speed = slot host_speed and lead_speed = slot lead_speed in
      let rear_pos = slot rear_pos in
      fun ctx ->
        let open Sim.Component in
        let range = float ctx lead_pos -. float ctx host_pos in
        let closing = float ctx host_speed -. float ctx lead_speed in
        let min_range = if defects.Defects.radar_min_range_dropout then 2.0 else 0.0 in
        let detected = range > min_range && range < 60. in
        let rrange = float ctx host_pos -. float ctx rear_pos in
        let rdetected = rrange > 0. && rrange < 30. in
        set_bool ctx object_detected detected;
        set_float ctx object_range range;
        set_float ctx object_closing_speed closing;
        set_bool ctx rear_object_detected rdetected;
        set_float ctx rear_range rrange)

(** Jerk derivation for the acceleration command and every feature request
    (needed by subgoals 2A/2B). The derivative is one state delayed, like
    every monitored value. *)
let jerk_derivation () =
  let tracked =
    (accel_cmd, accel_cmd_jerk)
    :: List.map (fun f -> (accel_req f, accel_req_jerk f)) features
  in
  (* the previous sample of each source; none before the first tick *)
  let last = Array.make (List.length tracked) 0. and primed = ref false in
  Sim.Component.make ~name:"JerkDerivation"
    ~outputs:(List.map (fun (_, out) -> (out, Value.Float 0.)) tracked)
    (fun slot ->
      let pairs = List.map (fun (src, out) -> (slot src, slot out)) tracked in
      let srcs = Array.of_list (List.map fst pairs) in
      let outs = Array.of_list (List.map snd pairs) in
      fun ctx ->
        for k = 0 to Array.length srcs - 1 do
          let v = Sim.Component.float ctx srcs.(k) in
          let prev = if !primed then last.(k) else v in
          last.(k) <- v;
          Sim.Component.set_float ctx outs.(k) ((v -. prev) /. ctx.Sim.Component.dt)
        done;
        primed := true)
