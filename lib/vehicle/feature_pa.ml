(** Park Assist (PA): finds a parking space and parks the vehicle on driver
    request (§5.2.1).

    Seeded defect (Fig. 5.3): while *not even enabled*, PA emits the ghost
    acceleration-request profile the thesis observed — +2 m/s² from the
    start of simulation until 2.186 s, 0 until 9.33 s, −2 m/s² until
    9.624 s, then 0. PA never signals active, so the Arbiter's redundancy
    masks the requests; the subgoal monitors (2B, 4B) still flag them —
    false positives that reveal a real subsystem defect (§5.4.1).

    When genuinely engaged, PA aligns (steering + zero acceleration) while
    the vehicle moves and creeps (+0.3 m/s²) from standstill. *)

open Signals

let ghost_profile now =
  if now < 2.186 then 2.0 else if now >= 9.33 && now < 9.624 then -2.0 else 0.0

let request_jerk_limit = 2.0 (* m/s^3: engaged-mode requests are ramped *)

(* All floats, so that it is stored unboxed. *)
type request = { mutable prev_req : float }

let component (defects : Defects.t) =
  let active_state = ref false in
  let prev_engage = ref false in
  let r = { prev_req = 0. } in
  Sim.Component.make ~name:"PA" ~outputs:(Feature_io.outputs "PA") (fun slot ->
      let out = Feature_io.bind slot "PA" in
      let enabled = slot (enabled "PA") in
      let engage_request = slot (engage_request "PA") in
      let host_speed = slot host_speed in
      fun ctx ->
        let open Sim.Component in
        let enabled = bool ctx enabled in
        let engage = bool ctx engage_request in
        if engage && (not !prev_engage) && enabled then active_state := true;
        prev_engage := engage;
        if not enabled then active_state := false;
        let v = float ctx host_speed in
        if !active_state then begin
          (* align phase (searching for a space: steering authority is
             claimed but the request is still neutral, and speed is held),
             or creep phase from standstill; either request is ramped *)
          let align = Float.abs v > 0.3 in
          let target = if align then 0. else 0.3 in
          let step = request_jerk_limit *. ctx.dt in
          let req =
            r.prev_req +. Float.max (-.step) (Float.min step (target -. r.prev_req))
          in
          r.prev_req <- req;
          Feature_io.write ctx out ~active:true ~accel_req:req ~req_accel:true
            ~steer_req:0. ~req_steer:align
        end
        else begin
          let g =
            if defects.Defects.pa_ghost_requests then ghost_profile ctx.now else 0.
          in
          r.prev_req <- g;
          Feature_io.write ctx out ~active:false ~accel_req:g ~req_accel:false
            ~steer_req:0. ~req_steer:false
        end)
