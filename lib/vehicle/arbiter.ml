(** The Arbiter: selects which subsystem (or the driver) controls vehicle
    acceleration and steering (§5.2.1). In the research vehicle this logic
    was distributed across processors with *separate* arbitration of
    acceleration and steering — the root of several defects the thesis
    uncovered (§5.3.2, §6.1.2):

    - steering arbitration priority is the *reverse* of acceleration
      priority, and the steering stage determines which request value is
      actually passed along as the acceleration command (Fig. 5.4);
    - 'selected' flags are latched past the actual source change, so
      transients are attributed to subsystems (§5.4.1);
    - when PA is the acceleration source the wrong slot is routed and the
      command differs from PA's request (Fig. 5.14);
    - LCA bypasses the selection debounce and gains control one state after
      activation (Fig. 5.10);
    - LCA and ACC can be flagged 'selected' simultaneously (Fig. 5.11).

    Selection timing (matching §5.4): a candidate feature is selected after
    a 50 ms debounce; pedal override deselects it after 50 ms and blocks
    re-selection while the pedals are applied; a previously overridden
    feature needs a 100 ms debounce to regain control after pedal release —
    the 0.101 s handoff of Fig. 5.9. *)

open Tl
open Signals

let accel_priority = [ "CA"; "RCA"; "PA"; "LCA"; "ACC" ]

type timing = {
  select_debounce : float;  (** candidate persistence before selection *)
  reselect_debounce : float;  (** re-selection after a pedal override (Fig. 5.9) *)
  override_debounce : float;  (** pedal persistence before override *)
  latch_time : float;  (** 'selected'-flag hold past the source change *)
}

(** The timing the thesis's system exhibited (§5.4). *)
let default_timing =
  {
    select_debounce = 0.05;
    reselect_debounce = 0.1;
    override_debounce = 0.05;
    latch_time = 0.15;
  }

(* A feature as the arbiter sees it: its slots and its per-feature
   selection state, bound once per world. *)
type feature = {
  fname : string;
  fsym : Value.t;  (** [Value.Sym fname] *)
  io : Feature_io.t;
  selected_slot : Sim.Component.slot;
  mutable blocked : bool;  (** overridden while pedals applied *)
  mutable was_overridden : bool;
  mutable latched : bool;  (** 'selected' flag held past the source change *)
  latch : latch;
}

(* The timers are all-float records, so that they are stored unboxed. *)
and latch = { mutable latch_left : float }

type state = {
  mutable cur : feature option;  (** current acceleration source; [None] = the driver *)
  mutable pend : feature option;
}

type timers = {
  mutable pend_t : float;
  mutable override_t : float;
  mutable last_steer : float;
}

let hard_stop_request ~v request =
  (* an emergency stop the driver may not override (§5.2.3) *)
  if v >= 0. then request < hard_brake else request > -.hard_brake

let driver = Value.Sym "Driver"
let is_cur st f = match st.cur with Some c -> c == f | None -> false
let requesting ctx f = Sim.Component.(bool ctx f.io.active && bool ctx f.io.req_accel)
let steering ctx f = Sim.Component.(bool ctx f.io.active && bool ctx f.io.req_steer)

(* The index in [prio] of the first feature [p] holds for, or [-1]. Like
   a filter, [p] reads every feature. *)
let first p ctx prio =
  let found = ref (-1) in
  for i = 0 to Array.length prio - 1 do
    if p ctx prio.(i) && !found < 0 then found := i
  done;
  !found

(* Whether the top candidate [f] may take control from the driver. An
   overridden feature stays blocked while the pedals are applied, but an
   emergency stop request is never blocked (§5.2.3). The repaired arbiter
   refuses to select a feature while the pedals are applied unless it is
   demanding an emergency stop; the evaluated arbiter checks the pedals
   only after selection, via the override logic. *)
let selectable (defects : Defects.t) ctx ~pedals ~v f =
  let open Sim.Component in
  (not (f.blocked && pedals && not (hard_stop_request ~v (float ctx f.io.accel_req))))
  && (defects.Defects.arbiter_selects_under_pedals
     || (not pedals)
     || hard_stop_request ~v (float ctx f.io.accel_req))

let pend_on st tm ~dt f =
  match st.pend with
  | Some p when p == f -> tm.pend_t <- tm.pend_t +. dt
  | _ ->
      st.pend <- Some f;
      tm.pend_t <- dt

let unpend st tm =
  st.pend <- None;
  tm.pend_t <- 0.

let component ?(timing = default_timing) (defects : Defects.t) =
  let { select_debounce; reselect_debounce; override_debounce; latch_time } = timing in
  Sim.Component.make ~name:"Arbiter"
    ~outputs:
      ([
         (accel_cmd, Value.Float 0.);
         (accel_source, Value.Sym "Driver");
         (va_source, Value.Sym "Driver");
         (steer_cmd, Value.Float 0.);
         (steer_source, Value.Sym "Driver");
         (vst_source, Value.Sym "Driver");
         (driver_selected, Value.Bool true);
       ]
      @ List.map (fun f -> (selected f, Value.Bool false)) features)
    (fun slot ->
      let bind f =
        {
          fname = f;
          fsym = Value.Sym f;
          io = Feature_io.bind slot f;
          selected_slot = slot (selected f);
          blocked = false;
          was_overridden = false;
          latched = false;
          latch = { latch_left = 0. };
        }
      in
      let bound = List.map bind features in
      let feature f = List.find (fun x -> x.fname = f) bound in
      let accel_priority = List.map feature accel_priority in
      let steer_priority =
        if defects.Defects.arbiter_steering_priority_reversed then List.rev accel_priority
        else accel_priority
      in
      let features = Array.of_list bound in
      let accel_priority = Array.of_list accel_priority in
      let steer_priority = Array.of_list steer_priority in
      let lca = feature "LCA" and pa = feature "PA" and acc = feature "ACC" in
      let host_speed = slot host_speed and throttle_pedal = slot throttle_pedal in
      let brake_pedal = slot brake_pedal and gear = slot gear in
      let steering_wheel_active = slot steering_wheel_active in
      let acc_engage = slot (engage_request "ACC") in
      let acc_enabled = slot (enabled "ACC") in
      let accel_cmd = slot accel_cmd and accel_source = slot accel_source in
      let va_source = slot va_source and steer_cmd = slot steer_cmd in
      let steer_source = slot steer_source and vst_source = slot vst_source in
      let driver_selected = slot driver_selected in
      let st = { cur = None; pend = None } in
      let tm = { pend_t = 0.; override_t = 0.; last_steer = 0. } in
      fun ctx ->
        let open Sim.Component in
        let dt = ctx.dt in
        let v = float ctx host_speed in
        let throttle = float ctx throttle_pedal in
        let brake = float ctx brake_pedal in
        let pedals = throttle > 0.05 || brake > 0.05 in
        if not pedals then
          for i = 0 to Array.length features - 1 do
            features.(i).blocked <- false
          done;
        (* --- acceleration arbitration --- *)
        let top = first requesting ctx accel_priority in
        (* override evaluation of the currently selected feature *)
        (match st.cur with
        | None -> tm.override_t <- 0.
        | Some f ->
            if requesting ctx f then begin
              if pedals && not (hard_stop_request ~v (float ctx f.io.accel_req)) then begin
                tm.override_t <- tm.override_t +. dt;
                if tm.override_t >= override_debounce then begin
                  st.cur <- None;
                  f.blocked <- true;
                  f.was_overridden <- true;
                  tm.override_t <- 0.
                end
              end
              else tm.override_t <- 0.
            end
            else begin
              (* the feature withdrew: fall back immediately *)
              st.cur <- None;
              tm.override_t <- 0.
            end);
        (* selection of a new source *)
        (if top < 0 then unpend st tm
         else
           let f = accel_priority.(top) in
           if Option.is_none st.cur && selectable defects ctx ~pedals ~v f then begin
             (* defect-adjacent: LCA bypasses the debounce *)
             if f == lca then st.cur <- Some f
             else begin
               let threshold =
                 if f.was_overridden then reselect_debounce else select_debounce
               in
               pend_on st tm ~dt f;
               if tm.pend_t >= threshold then begin
                 st.cur <- Some f;
                 unpend st tm
               end
             end
           end
           else if Option.is_some st.cur && not (is_cur st f) then begin
             (* a higher-priority feature preempts after the debounce *)
             pend_on st tm ~dt f;
             if tm.pend_t >= select_debounce then begin
               st.cur <- Some f;
               unpend st tm
             end
           end
           else unpend st tm);
        (* driver demand *)
        let driver_demand =
          if brake > 0.05 then
            if v > 0.01 then -7. *. brake else if v < -0.01 then 7. *. brake else 0.
          else
            let dir = if sym ctx gear = "R" then -1. else 1. in
            dir *. 2.5 *. throttle
        in
        let cmd =
          match st.cur with None -> driver_demand | Some f -> float ctx f.io.accel_req
        in
        (* --- steering arbitration --- *)
        let steer_top = first steering ctx steer_priority in
        let wheel = bool ctx steering_wheel_active in
        let winner = if wheel then -1 else steer_top in
        let s_cmd =
          if winner < 0 then tm.last_steer
          else
            let f = steer_priority.(winner) in
            if f == lca && defects.Defects.lca_steering_ignored then tm.last_steer
            else float ctx f.io.steer_req
        in
        tm.last_steer <- s_cmd;
        (* Defect: the steering stage determines which acceleration request
           value is passed along (§5.4.2). *)
        let cmd =
          if
            winner >= 0
            && defects.Defects.arbiter_steering_priority_reversed
            && Option.is_some st.cur
          then float ctx steer_priority.(winner).io.accel_req
          else cmd
        in
        (* Defect: wrong slot routed when PA is the acceleration source. *)
        let cmd =
          if is_cur st pa && defects.Defects.pa_command_mismatch then
            float ctx pa.io.steer_req
          else cmd
        in
        (* --- selected flags, with the latch defect --- *)
        for i = 0 to Array.length features - 1 do
          let f = features.(i) in
          let selected_now =
            is_cur st f
            || (winner >= 0 && steer_priority.(winner) == f)
            || (defects.Defects.arbiter_dual_selected && f == acc && is_cur st lca)
            (* Defect: the HMI engage request drives the 'selected' indicator
               directly, even when the activation failed — the Fig. 5.15
               phantom attribution. *)
            || defects.Defects.arbiter_dual_selected
               && f == acc
               && bool ctx acc_engage
               && bool ctx acc_enabled
               && not (bool ctx acc.io.active)
          in
          if selected_now then begin
            f.latched <- true;
            f.latch.latch_left <- latch_time
          end
          else if
            f.latched
            && f.latch.latch_left -. dt > 0.
            && defects.Defects.arbiter_selected_latch
          then f.latch.latch_left <- f.latch.latch_left -. dt
          else f.latched <- false
        done;
        (* The flag-derived attribution (the only attribution visible outside
           the arbiter) follows the latched 'selected' flags: during the latch
           window a transient is still attributed to the subsystem (§5.4.1). *)
        let flag_attribution =
          match st.cur with
          | Some f -> f.fsym
          | None ->
              let latched = first (fun _ f -> f.latched) ctx accel_priority in
              if latched >= 0 && defects.Defects.arbiter_selected_latch then
                accel_priority.(latched).fsym
              else driver
        in
        let source = match st.cur with Some f -> f.fsym | None -> driver in
        let steer_src = if winner >= 0 then steer_priority.(winner).fsym else driver in
        set_float ctx accel_cmd cmd;
        set ctx accel_source source;
        set ctx va_source flag_attribution;
        set_float ctx steer_cmd s_cmd;
        set ctx steer_source steer_src;
        set ctx vst_source steer_src;
        set_bool ctx driver_selected (Option.is_none st.cur);
        for i = 0 to Array.length features - 1 do
          set_bool ctx features.(i).selected_slot features.(i).latched
        done)
