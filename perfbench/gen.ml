(* Seeded inputs. Every input a workload feeds the program — fault
   specimens as [Inject.Spec] strings, scenario picks, sweep windows and
   the request order — is drawn here from [--seed]; the program under test
   only ever sees the generated values. Each input stream has its own
   generator, so adding a draw to one stream never shifts another. *)

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]
let int st n = Random.State.int st n
let pick st a = a.(int st (Array.length a))

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Fault families. Each one keeps every run of the repaired scenarios at
   its full 20 s (no fault-induced collision ends a run early), so a
   cell costs the same whatever the seed draws: the seed varies which
   signals are perturbed, how and when, but not how much simulation a
   grid holds. Families that can end runs early ([hold], range dropout,
   host-speed drift, host-acceleration noise, stuck collision-avoidance
   or reverse-assist requests) are deliberately absent. *)
let families : (Random.State.t -> string) array =
  [|
    (fun st ->
      Printf.sprintf "delay=%d:%s"
        (10 * (2 + int st 29))
        (pick st [| "accel_cmd"; "object_range"; "host_speed" |]));
    (fun st ->
      let a = 1 + int st 10 in
      Printf.sprintf "nan:%s@%d..%d"
        (pick st [| "host_jerk"; "host_accel" |])
        a
        (a + 2 + int st 7));
    (fun st -> Printf.sprintf "noise=%g:object_range" (0.05 *. float_of_int (1 + int st 10)));
    (fun st ->
      Printf.sprintf "drift=%g:object_range@%d.."
        (0.05 *. float_of_int (1 + int st 4))
        (int st 10));
    (fun st ->
      Printf.sprintf "spike=%d/%g:%s" (1 + int st 4)
        (0.2 *. float_of_int (1 + int st 5))
        (pick st [| "host_accel"; "host_jerk" |]));
    (fun st ->
      Printf.sprintf "flicker=%g:%s"
        (0.1 *. float_of_int (1 + int st 5))
        (pick st [| "object_detected"; "rear_object_detected" |]));
    (fun st ->
      Printf.sprintf "stuck=%d:pa_accel_req" (-1 - int st 3));
  |]

(* [n] distinct fault specs, avoiding [exclude]. The families hold a
   few hundred distinct specs; asking for more is a harness bug. *)
let faults ?(exclude = []) st n =
  let rec go acc k tries =
    if tries > 1000 * (n + 1) then invalid_arg "Gen.faults: not enough distinct specs";
    if k = n then List.rev acc
    else
      let s = families.(int st (Array.length families)) st in
      if List.mem s acc || List.mem s exclude then go acc k (tries + 1)
      else go (s :: acc) (k + 1) (tries + 1)
  in
  go [] 0 0

(* [n] distinct scenario numbers out of the ten, in draw order. *)
let scenarios st n = Array.to_list (Array.sub (shuffle st (Array.init 10 (fun i -> i + 1))) 0 n)

type grid = { specs : string list; scenario_numbers : int list; seed : int }

let grid ~seed ~tag ~faults:nf ~scenarios:ns =
  let st = rng ~seed tag in
  let specs = faults st nf in
  { specs; scenario_numbers = scenarios st ns; seed }

let campaign_grid g =
  {
    Scenarios.Campaign.seed = g.seed;
    faults = List.map Inject.Spec.parse_exn g.specs;
    grid_scenarios = List.map Scenarios.Defs.get g.scenario_numbers;
  }

(* The one-cell served request for (spec, scenario). *)
let wire_spec ~seed spec scenario =
  { Serve.Wire.seed; faults = [ spec ]; scenarios = [ scenario ]; window = None; retries = 0 }

(* Sweep windows: the 65000 distinct values 5 ms + k * 0.01 ms in
   [5 ms, 655 ms), in a seeded order. Distinct values make every window
   miss the window-keyed outcome cache. *)
let windows ~seed =
  shuffle (rng ~seed "windows")
    (Array.init 65000 (fun k -> (5. +. (0.01 *. float_of_int k)) /. 1000.))
