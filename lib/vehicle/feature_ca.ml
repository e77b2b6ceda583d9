(** Collision Avoidance (CA): detects objects in the forward path and stops
    the vehicle before a collision (§5.2.1).

    Seeded defects:
    - no engage hysteresis: braking raises the time-to-collision back above
      the engage threshold, so CA cancels and re-engages in a chatter
      (Fig. 5.2);
    - no hold-at-stop: CA releases the brake instead of holding the vehicle
      until the driver initiates motion (§5.4.1);
    the radar minimum-range dropout (in [Plant.sensors]) additionally makes
    CA release its final hard brake just before impact. *)

open Signals

let engage_ttc = 2.2
let brake_request = -9.0

let release_jerk_limit = 2.0 (* m/s^3: the repaired CA releases gradually *)

(* All floats, so that it is stored unboxed. *)
type request = { mutable prev_req : float }

let component (defects : Defects.t) =
  let engaged = ref false in
  let releasing = ref false in
  let r = { prev_req = 0. } in
  Sim.Component.make ~name:"CA" ~outputs:(Feature_io.outputs "CA") (fun slot ->
      let out = Feature_io.bind slot "CA" in
      let enabled = slot (enabled "CA") in
      let object_detected = slot object_detected in
      let object_range = slot object_range in
      let object_closing_speed = slot object_closing_speed in
      let host_speed = slot host_speed in
      let gear = slot gear in
      let throttle_pedal = slot throttle_pedal in
      fun ctx ->
        let open Sim.Component in
        let enabled = bool ctx enabled in
        let detected = bool ctx object_detected in
        let range = float ctx object_range in
        let closing = float ctx object_closing_speed in
        let speed = float ctx host_speed in
        let forward_gear = sym ctx gear = "D" in
        let ttc = if closing > 0.05 then range /. closing else Float.infinity in
        let should_engage = enabled && forward_gear && detected && ttc < engage_ttc in
        (if defects.Defects.ca_no_hysteresis then
           (* the engage condition is re-evaluated every state: braking pushes
              ttc back over the threshold and CA cancels *)
           engaged := should_engage
         else if should_engage then begin
           engaged := true;
           releasing := false
         end
         else if
           (* repaired behaviour: once engaged, brake until stopped, then hold
              until the driver applies the throttle AND the path is clear (an
              emergency hold is never released into an obstacle); the release
              then bleeds the request off jerk-limited while CA stays active *)
           !engaged
           && Float.abs speed < 0.01
           && float ctx throttle_pedal > 0.05
           && not (detected && range < 4.0)
         then begin
           engaged := false;
           releasing := true
         end
         else if not (enabled && forward_gear) then begin
           engaged := false;
           releasing := !releasing && r.prev_req < -0.01
         end);
        if !releasing && r.prev_req >= -0.01 then releasing := false;
        let raw =
          if !engaged then
            if (not defects.Defects.ca_no_hysteresis) && Float.abs speed < 0.01 then -0.25
            else brake_request
          else 0.
        in
        let still_active = !engaged || !releasing in
        (* Brake application is immediate; the repaired CA releases the brake
           jerk-limited, while the defective CA drops the request instantly —
           the Fig. 5.2 step and the 2B.CA violations. *)
        let request =
          if raw <= r.prev_req || defects.Defects.ca_no_hysteresis then raw
          else Float.min raw (r.prev_req +. (release_jerk_limit *. ctx.dt))
        in
        r.prev_req <- request;
        Feature_io.write ctx out ~active:still_active ~accel_req:request
          ~req_accel:still_active ~steer_req:0. ~req_steer:false)
