(** Rear Collision Avoidance (RCA): stops the vehicle before an object
    behind it when reversing (§5.2.1).

    Seeded defect (Fig. 5.12, §5.4.7): the engage condition tests the wrong
    gear — it requires drive instead of reverse, so RCA never engages and
    the vehicle backs into the stopped object with no goal violation at all:
    the hazard corresponds to a *missing* goal, the first emergence problem
    of §3.1 that monitoring cannot detect. *)

open Signals

let engage_ttc = 2.5
let brake_request = 6.0
(* Braking while reversing is a positive acceleration. *)

let component (defects : Defects.t) =
  Sim.Component.make ~name:"RCA" ~outputs:(Feature_io.outputs "RCA") (fun slot ->
      let out = Feature_io.bind slot "RCA" in
      let enabled = slot (enabled "RCA") in
      let rear_object_detected = slot rear_object_detected in
      let rear_range = slot rear_range in
      let host_speed = slot host_speed in
      let gear = slot gear in
      fun ctx ->
        let open Sim.Component in
        let enabled = bool ctx enabled in
        let detected = bool ctx rear_object_detected in
        let range = float ctx rear_range in
        let v = float ctx host_speed in
        let gear_now = sym ctx gear in
        let gear_ok =
          if defects.Defects.rca_never_engages then gear_now = "D" (* wrong gear *)
          else gear_now = "R"
        in
        let closing = -.v in
        let ttc = if closing > 0.05 then range /. closing else Float.infinity in
        let engaged = enabled && gear_ok && detected && ttc < engage_ttc in
        Feature_io.write ctx out ~active:engaged
          ~accel_req:(if engaged then brake_request else 0.)
          ~req_accel:engaged ~steer_req:0. ~req_steer:false)
