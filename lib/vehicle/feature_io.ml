(** The five outputs every feature subsystem controls (§5.2.1): its
    activity flag, its acceleration request and requesting flag, and its
    steering request and requesting flag, bound to slots once per world. *)

open Tl
open Signals

let outputs f =
  [
    (active f, Value.Bool false);
    (accel_req f, Value.Float 0.);
    (req_accel f, Value.Bool false);
    (steer_req f, Value.Float 0.);
    (req_steer f, Value.Bool false);
  ]

type t = {
  active : Sim.Component.slot;
  accel_req : Sim.Component.slot;
  req_accel : Sim.Component.slot;
  steer_req : Sim.Component.slot;
  req_steer : Sim.Component.slot;
}

let bind (slot : Sim.Component.binder) f =
  {
    active = slot (active f);
    accel_req = slot (accel_req f);
    req_accel = slot (req_accel f);
    steer_req = slot (steer_req f);
    req_steer = slot (req_steer f);
  }

let write ctx o ~active ~accel_req ~req_accel ~steer_req ~req_steer =
  let open Sim.Component in
  set_bool ctx o.active active;
  set_float ctx o.accel_req accel_req;
  set_bool ctx o.req_accel req_accel;
  set_float ctx o.steer_req steer_req;
  set_bool ctx o.req_steer req_steer
