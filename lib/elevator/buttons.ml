(** Hall and car button controllers (Fig. 4.5): one software agent per
    button. A passenger press latches the corresponding call; the dispatch
    controller clears a call when it has been served (doors opened at the
    requested floor).

    Variables:
    - ["hall_button_press_F_D"], ["car_button_press_F"] — passenger inputs
      (momentary, driven by the scenario script);
    - ["hall_call_F_D"], ["car_call_F"] — latched calls on the network
      (direct control of the button controllers);
    - ["served_floor"] — the dispatch controller's feedback clearing calls. *)

open Tl

type direction = Up | Down

let direction_to_string = function Up -> "up" | Down -> "down"

let hall_press f d = Fmt.str "hall_button_press_%d_%s" f (direction_to_string d)
let hall_call f d = Fmt.str "hall_call_%d_%s" f (direction_to_string d)
let car_press f = Fmt.str "car_button_press_%d" f
let car_call f = Fmt.str "car_call_%d" f

(* A button controller latches [press] into [call] until the dispatch
   controller reports the floor served. *)
let latch ~name ~floor:f ~press ~call : Sim.Component.t =
  Sim.Component.make ~name
    ~outputs:[ (call, Value.Bool false) ]
    (fun slot ->
      let press = slot press and call = slot call in
      let served_floor = slot "served_floor" in
      fun ctx ->
        let open Sim.Component in
        let pressed = bool ctx press in
        let latched = bool ctx call in
        let served =
          match get ctx served_floor with Value.Int sf -> sf = f | _ -> false
        in
        set_bool ctx call ((pressed || latched) && not served))

(** One car-button controller per floor [f]: latches the press into the
    call until the floor is served. *)
let car_button_controller ~floor:f : Sim.Component.t =
  latch
    ~name:(Fmt.str "CarButtonController_%d" f)
    ~floor:f ~press:(car_press f) ~call:(car_call f)

(** One hall-button controller per floor and direction. *)
let hall_button_controller ~floor:f ~direction:d : Sim.Component.t =
  latch
    ~name:(Fmt.str "HallButtonController_%d_%s" f (direction_to_string d))
    ~floor:f ~press:(hall_press f d) ~call:(hall_call f d)

(** All button-controller components for a building of [floors] floors
    (floor 1 has no down hall button; the top floor no up button). *)
let all ~floors : Sim.Component.t list =
  List.concat_map
    (fun f ->
      car_button_controller ~floor:f
      :: ((if f < floors then [ hall_button_controller ~floor:f ~direction:Up ] else [])
         @ if f > 1 then [ hall_button_controller ~floor:f ~direction:Down ] else []))
    (List.init floors (fun i -> i + 1))

(** Initial values for the passenger-facing press inputs (owned by the
    scenario's Passenger stimulus). *)
let press_inputs ~floors =
  List.concat_map
    (fun f ->
      (car_press f, Value.Bool false)
      :: ((if f < floors then [ (hall_press f Up, Value.Bool false) ] else [])
         @ if f > 1 then [ (hall_press f Down, Value.Bool false) ] else []))
    (List.init floors (fun i -> i + 1))

(** [called slot ~floors] binds the latched calls of every floor; the
    result tells, in a state, whether floor [f] has an outstanding car or
    hall call. *)
let called (slot : Sim.Component.binder) ~floors =
  (* slot of [name f] for floors [lo..hi], indexed by [f - 1] *)
  let calls lo hi name =
    Array.init floors (fun i ->
        if i + 1 >= lo && i + 1 <= hi then slot (name (i + 1)) else -1)
  in
  let car = calls 1 floors car_call in
  let up = calls 1 (floors - 1) (fun f -> hall_call f Up) in
  let down = calls 2 floors (fun f -> hall_call f Down) in
  fun ctx f ->
    let open Sim.Component in
    bool ctx car.(f - 1)
    || (f < floors && bool ctx up.(f - 1))
    || (f > 1 && bool ctx down.(f - 1))

(** Outstanding calls (floors [f] with [called f]), nearest-first relative
    to the given floor — the dispatch controller's view. *)
let outstanding ~floors ~called ~from =
  let calls = List.filter called (List.init floors (fun i -> i + 1)) in
  List.sort (fun a b -> compare (abs (a - from)) (abs (b - from))) calls
