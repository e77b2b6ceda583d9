(** Regeneration of the evaluation figures (Figs. 5.2–5.15): each figure is
    a set of signal series extracted from a scenario trace over the window
    where the defect manifests, plus the key events the thesis's caption
    calls out. *)

open Tl
open Vehicle.Signals

type series = { label : string; points : (float * float) list }

type t = {
  id : string;
  caption : string;
  scenario : int;
  window : Runner.outcome -> float * float;
  signals : (string * string) list;  (** (variable, label) — bools as 0/1 *)
  events : Runner.outcome -> (float * string) list;
}

let value_as_float s v =
  match State.get s v with
  | Value.Bool b -> if b then 1. else 0.
  | x -> Value.to_float x

(** Extract a signal over a window, downsampled to at most [max_points]. *)
let extract ?(max_points = 60) (trace : Trace.t) (lo, hi) var label =
  let n = Trace.length trace in
  let dt = Trace.dt trace in
  let i0 = max 0 (int_of_float (lo /. dt)) in
  let i1 = min (n - 1) (int_of_float (hi /. dt)) in
  let span = max 1 (i1 - i0) in
  let stride = max 1 (span / max_points) in
  let rec go i acc =
    if i > i1 then List.rev acc
    else
      go (i + stride) ((Trace.time trace i, value_as_float (Trace.get trace i) var) :: acc)
  in
  { label; points = go i0 [] }

(** Times at which a boolean signal changes value. *)
let transitions (trace : Trace.t) var =
  let rec go acc prev = function
    | [] -> List.rev acc
    | (t, b) :: rest ->
        go (if b <> prev then (t, Fmt.str "%s -> %b" var b) :: acc else acc) b rest
  in
  match Trace.bool_signal trace var with [] -> [] | (_, b) :: rest -> go [] b rest

let end_window ~before (o : Runner.outcome) =
  (Float.max 0. (o.Runner.end_time -. before), o.Runner.end_time)

let fixed lo hi _ = (lo, hi)

let all : t list =
  [
    {
      id = "fig_5_2";
      caption =
        "Scenario 1: CA begins a braking action, but cancels it briefly \
         before beginning it again.";
      scenario = 1;
      window = end_window ~before:6.0;
      signals = [ (accel_req "CA", "CA acceleration request (m/s^2)") ];
      events = (fun o -> transitions o.Runner.trace (active "CA"));
    };
    {
      id = "fig_5_3";
      caption = "Scenario 1: PA requests acceleration without being enabled.";
      scenario = 1;
      window = fixed 0. 12.;
      signals = [ (accel_req "PA", "PA acceleration request (m/s^2)") ];
      events = (fun _ -> []);
    };
    {
      id = "fig_5_4";
      caption =
        "Scenario 2: CA is not the source of the acceleration command when \
         PA is enabled, even though CA is selected to be in control of \
         acceleration.";
      scenario = 2;
      window = fixed 7.4 8.6;
      signals =
        [
          (accel_cmd, "Arbiter acceleration command (m/s^2)");
          (accel_req "CA", "CA acceleration request (m/s^2)");
          (selected "CA", "CA selected (0/1)");
        ];
      events = (fun o -> transitions o.Runner.trace (active "PA"));
    };
    {
      id = "fig_5_5";
      caption =
        "Scenario 3: CA engages to stop the host vehicle, even though the \
         throttle pedal is applied. The CA braking action is intermittent, \
         however, and fails to stop the host vehicle before 'hitting' the \
         parked vehicle in its path.";
      scenario = 3;
      window = end_window ~before:6.0;
      signals =
        [
          (host_speed, "Host vehicle speed (m/s)");
          (accel_req "CA", "CA acceleration request (m/s^2)");
        ];
      events =
        (fun o ->
          transitions o.Runner.trace (active "CA")
          @ if o.Runner.collided then [ (o.Runner.end_time, "collision") ] else []);
    };
    {
      id = "fig_5_6";
      caption =
        "Scenario 3: ACC sends acceleration requests to control the vehicle \
         to a set speed of 0 m/s, even though ACC is not engaged.";
      scenario = 3;
      window = fixed 0. 10.;
      signals =
        [
          (accel_req "ACC", "ACC acceleration request (m/s^2)");
          (host_speed, "Host vehicle speed (m/s)");
        ];
      events = (fun _ -> []);
    };
    {
      id = "fig_5_7";
      caption = "Scenario 4: ACC acceleration request and jerk profile.";
      scenario = 4;
      window = fixed 12.0 16.0;
      signals =
        [
          (accel_req "ACC", "ACC acceleration request (m/s^2)");
          (accel_req_jerk "ACC", "ACC request jerk (m/s^3)");
        ];
      events = (fun _ -> []);
    };
    {
      id = "fig_5_8";
      caption =
        "Scenario 4: ACC is engaged while the driver is applying the \
         throttle pedal. ACC briefly takes control of vehicle acceleration, \
         but loses control again until the driver releases the throttle \
         pedal. ACC decelerates, then accelerates the vehicle before the \
         simulation terminates.";
      scenario = 4;
      window = fixed 2.5 20.0;
      signals =
        [
          (host_speed, "Host vehicle speed (m/s)");
          (selected "ACC", "ACC selected (0/1)");
          (throttle_pedal, "Throttle pedal");
        ];
      events = (fun o -> transitions o.Runner.trace (selected "ACC"));
    };
    {
      id = "fig_5_9";
      caption =
        "Scenario 5: The driver releases the throttle pedal. Control of \
         acceleration is gained by ACC 0.101 seconds later.";
      scenario = 5;
      window = fixed 7.8 8.6;
      signals =
        [
          (throttle_pedal, "Throttle pedal");
          (selected "ACC", "ACC selected (0/1)");
        ];
      events = (fun o -> transitions o.Runner.trace (selected "ACC"));
    };
    {
      id = "fig_5_10";
      caption =
        "Scenario 6: LCA is enabled at time 5.0 s, and gains control of \
         acceleration and steering at time 5.001 s. At time 5.051, LCA \
         requests steering, but the steering command remains unchanged.";
      scenario = 6;
      window = fixed 4.9 8.0;
      signals =
        [
          (steer_req "LCA", "LCA steering request (deg)");
          (steer_cmd, "Steering command (deg)");
          (selected "LCA", "LCA selected (0/1)");
        ];
      events =
        (fun o ->
          transitions o.Runner.trace (active "LCA")
          @ transitions o.Runner.trace (req_steer "LCA"));
    };
    {
      id = "fig_5_11";
      caption =
        "Scenario 6: Vehicle speed becomes negative, LCA and ACC are still \
         active and selected to control vehicle acceleration.";
      scenario = 6;
      window = fixed 8.0 14.0;
      signals =
        [
          (host_speed, "Host vehicle speed (m/s)");
          (selected "LCA", "LCA selected (0/1)");
          (selected "ACC", "ACC selected (0/1)");
        ];
      events =
        (fun o ->
          List.filter_map
            (fun (t, v) -> if v < -0.01 then Some (t, "speed negative") else None)
            (Trace.signal o.Runner.trace host_speed)
          |> function
          | [] -> []
          | (t, e) :: _ -> [ (t, e) ]);
    };
    {
      id = "fig_5_12";
      caption =
        "Scenario 7: RCA is enabled at the simulation start, but never \
         engages to stop the host vehicle before reaching the stopped \
         vehicle behind it.";
      scenario = 7;
      window = (fun o -> (0., o.Runner.end_time));
      signals =
        [
          (host_speed, "Host vehicle speed (m/s)");
          (active "RCA", "RCA active (0/1)");
          (rear_range, "Range to rear object (m)");
        ];
      events =
        (fun o ->
          if o.Runner.collided then [ (o.Runner.end_time, "collision (rear)") ] else []);
    };
    {
      id = "fig_5_13";
      caption =
        "Scenario 8: After ACC is engaged at time 2.0 s, it is selected as \
         the source of the acceleration command at time 2.05 s.";
      scenario = 8;
      window = fixed 1.8 3.0;
      signals =
        [
          (active "ACC", "ACC active (0/1)");
          (selected "ACC", "ACC selected (0/1)");
          (host_speed, "Host vehicle speed (m/s)");
        ];
      events =
        (fun o ->
          transitions o.Runner.trace (active "ACC")
          @ transitions o.Runner.trace (selected "ACC"));
    };
    {
      id = "fig_5_14";
      caption =
        "Scenario 9: When PA is engaged, it is selected as the source of \
         the acceleration command, but the acceleration command is not \
         equal to the PA acceleration request.";
      scenario = 9;
      window = fixed 1.8 4.0;
      signals =
        [
          (accel_req "PA", "PA acceleration request (m/s^2)");
          (accel_cmd, "Arbiter acceleration command (m/s^2)");
          (selected "PA", "PA selected (0/1)");
        ];
      events = (fun o -> transitions o.Runner.trace (selected "PA"));
    };
    {
      id = "fig_5_15";
      caption =
        "Scenario 10: When the driver attempts to engage ACC at time 4.0 s, \
         ACC does not become active, nor is it selected by the Arbiter to \
         control steering. The vehicle, however, does begin to accelerate.";
      scenario = 10;
      window = fixed 3.5 8.0;
      signals =
        [
          (host_speed, "Host vehicle speed (m/s)");
          (active "ACC", "ACC active (0/1)");
          (host_accel, "Host acceleration (m/s^2)");
        ];
      events =
        (fun o ->
          List.filter_map
            (fun (t, v) -> if v > 0.01 then Some (t, "vehicle moving") else None)
            (Trace.signal o.Runner.trace host_speed)
          |> function
          | [] -> []
          | (t, e) :: _ -> [ (t, e) ]);
    };
  ]

let get id = List.find (fun f -> f.id = id) all

(** Render one figure from a scenario outcome as text series. *)
let render ppf (fig : t) (o : Runner.outcome) =
  let window = fig.window o in
  Fmt.pf ppf "@[<v>%s — %s@," (String.uppercase_ascii fig.id) fig.caption;
  Fmt.pf ppf "(scenario %d, window %.2f–%.2f s)@," fig.scenario (fst window) (snd window);
  List.iter
    (fun (var, label) ->
      let s = extract o.Runner.trace window var label in
      Fmt.pf ppf "@,%s:@," s.label;
      Fmt.pf ppf "  %a@,"
        (Fmt.list ~sep:(Fmt.any "@,  ") (fun ppf (t, v) -> Fmt.pf ppf "%8.3f  %10.4f" t v))
        s.points)
    fig.signals;
  (match fig.events o with
  | [] -> ()
  | evs ->
      Fmt.pf ppf "@,Key events:@,";
      List.iter (fun (t, e) -> Fmt.pf ppf "  t=%.3f  %s@," t e) evs);
  Fmt.pf ppf "@]"
