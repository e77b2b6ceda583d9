(** Lane Change Assist (LCA): performs a driver-requested lane change in
    conjunction with ACC, which provides the longitudinal control — LCA and
    ACC share acceleration requests (§5.3.2).

    Behaviour matching Fig. 5.10: engaged at t, active one state later, and
    the steering request begins 50 ms after activation. *)

open Signals

let steer_angle = 12.0 (* degrees *)
let maneuver_delay = 0.05
let maneuver_time = 2.5

(* All floats, so that it is stored unboxed. *)
type clock = { mutable active_since : float }

let component (_defects : Defects.t) =
  let active_state = ref false in
  let c = { active_since = 0. } in
  let prev_engage = ref false in
  Sim.Component.make ~name:"LCA" ~outputs:(Feature_io.outputs "LCA") (fun slot ->
      let out = Feature_io.bind slot "LCA" in
      let engage_request = slot (engage_request "LCA") in
      let enabled = slot (enabled "LCA") in
      let acc_active = slot (active "ACC") in
      let acc_accel_req = slot (accel_req "ACC") in
      fun ctx ->
        let open Sim.Component in
        let now = ctx.now in
        let engage = bool ctx engage_request in
        let enabled = bool ctx enabled in
        let acc_on = bool ctx acc_active in
        (if engage && (not !prev_engage) && enabled && acc_on then begin
           active_state := true;
           c.active_since <- now
         end);
        prev_engage := engage;
        if not (enabled && acc_on) then active_state := false;
        let elapsed = now -. c.active_since in
        let maneuvering =
          !active_state
          && elapsed >= maneuver_delay
          && elapsed < maneuver_delay +. maneuver_time
        in
        let steer =
          if maneuvering then
            (* half-sine lane-change profile *)
            steer_angle
            *. Float.sin (Float.pi *. (elapsed -. maneuver_delay) /. maneuver_time)
          else 0.
        in
        Feature_io.write ctx out ~active:!active_state
          (* longitudinal control shared with ACC *)
          ~accel_req:(float ctx acc_accel_req)
          ~req_accel:!active_state ~steer_req:steer ~req_steer:maneuvering)
