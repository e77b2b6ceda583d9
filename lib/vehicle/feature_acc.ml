(** Adaptive Cruise Control (ACC): controls to a driver-set speed, or to a
    following distance behind a slower lead vehicle (§5.2.1). Also performs
    the longitudinal control for LCA.

    The request is jerk-limited to 2.0 m/s³ (Fig. 5.7), below the 2.5 m/s³
    subgoal threshold, and capped at +1.8 m/s² — the safety-envelope
    restriction of Eq. 3.48.

    Seeded defects:
    - controls toward an uninitialized 0 m/s set speed whenever merely
      enabled (Fig. 5.6);
    - no gear check on engagement (Fig. 5.13);
    - integrator windup during driver override (the Fig. 5.8 hunting);
    - no standstill clamp: gap control can command the vehicle through zero
      speed (Fig. 5.11). *)

open Signals

let kp = 0.8
let ki = 0.3
let request_max = 1.8
let request_min = -3.0
let jerk_rate = 2.0
let min_engage_speed = 0.3
let desired_gap = 6.0

(* The controller's memory, all floats so that it is stored unboxed. *)
type control = { mutable integ : float; mutable prev_req : float }

let component (defects : Defects.t) =
  let active_state = ref false in
  let c = { integ = 0.; prev_req = 0. } in
  let prev_engage = ref false in
  Sim.Component.make ~name:"ACC" ~outputs:(Feature_io.outputs "ACC") (fun slot ->
      let out = Feature_io.bind slot "ACC" in
      let enabled = slot (enabled "ACC") in
      let engage_request = slot (engage_request "ACC") in
      let host_speed = slot host_speed in
      let gear = slot gear in
      let acc_set_speed = slot acc_set_speed in
      let object_detected = slot object_detected in
      let object_range = slot object_range in
      let lead_speed = slot lead_speed in
      let accel_source = slot accel_source in
      fun ctx ->
        let open Sim.Component in
        let dt = ctx.dt in
        let enabled = bool ctx enabled in
        let engage = bool ctx engage_request in
        let v = float ctx host_speed in
        let in_drive = sym ctx gear = "D" in
        (* Engagement on the rising edge of the HMI request. *)
        (if engage && not !prev_engage then
           let gear_ok = defects.Defects.acc_no_gear_check || in_drive in
           if enabled && gear_ok && Float.abs v >= min_engage_speed then begin
             active_state := true;
             c.integ <- 0.
           end);
        prev_engage := engage;
        if not enabled then active_state := false;
        let set = float ctx acc_set_speed in
        let detected = bool ctx object_detected in
        let range = float ctx object_range in
        let lead_v = float ctx lead_speed in
        let request =
          if !active_state || (enabled && defects.Defects.acc_controls_when_disengaged)
          then begin
            (* engaged: control to the set speed; merely enabled with the
               defect: the uninitialized set speed controls the vehicle
               toward 0 m/s *)
            let set_speed = if !active_state then set else 0. in
            let target =
              if detected && range < Float.max 10. (2.0 *. Float.abs v *. 1.5) then
                Float.min set_speed (lead_v +. (0.25 *. (range -. desired_gap)))
              else set_speed
            in
            let target =
              if (not defects.Defects.acc_no_standstill_clamp) && target < 0. then 0.
              else target
            in
            let err = target -. v in
            let selected = sym ctx accel_source = "ACC" || sym ctx accel_source = "LCA" in
            if selected || defects.Defects.acc_integrator_windup then
              c.integ <- c.integ +. (err *. dt);
            let raw = (kp *. err) +. (ki *. c.integ) in
            let raw = Float.max request_min (Float.min request_max raw) in
            let raw =
              if (not defects.Defects.acc_no_standstill_clamp) && v <= 0.01 then
                Float.max 0. raw
              else raw
            in
            (* jerk limiter *)
            let step = jerk_rate *. dt in
            let r =
              c.prev_req +. Float.max (-.step) (Float.min step (raw -. c.prev_req))
            in
            c.prev_req <- r;
            r
          end
          else begin
            c.prev_req <- 0.;
            c.integ <- 0.;
            0.
          end
        in
        Feature_io.write ctx out ~active:!active_state ~accel_req:request
          ~req_accel:!active_state ~steer_req:0. ~req_steer:false)
