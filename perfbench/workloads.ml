(* The repository benchmark: four campaign workloads, their end-to-end
   metrics, and a traced run that splits a cell's cost by layer.

     dune exec perfbench/workloads.exe -- [--workload W]... [--seed N]
       [--seconds S] [--trace [0|1]] [--quick] [--expect BENCHMARK.json]

   With one [--workload] the workload runs in this process; otherwise
   each workload runs in its own child process (a re-exec of this
   binary), so caches, peak RSS and set-up time are per workload. Every
   metric is printed as [workload metric value unit]; the last line of
   standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. See README.md. *)

open Common

type workload = {
  name : string;
  setup : seed:int -> quick:bool -> golden:(string * string) list option -> session;
}

(* BENCHMARK.json declares all but grid_sharded: on a shared host its
   runs spread too widely for a regression bound (README, "Stability"),
   so it runs only when asked for, e.g. to compare dispatch paths. *)
let workloads =
  [
    { name = "grid_cold"; setup = W_grid.setup ~sharded:false };
    { name = "grid_sharded"; setup = W_grid.setup ~sharded:true };
    { name = "sweep_mine"; setup = W_sweep.setup };
    { name = "serve_mixed"; setup = (fun ~seed ~quick ~golden:_ -> W_serve.setup ~seed ~quick) };
  ]

(* Set-ups per run; setup_s is their median. *)
let setup_samples ~quick = if quick then 2 else 3

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None -> fail "unknown workload %S (known: %s)" name
              (String.concat ", " (List.map (fun w -> w.name) workloads))

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

type opts = {
  names : string list;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  setup_only : bool;
  expect : string option;
}

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with names = o.names @ [ w ] } rest
    | "--seed" :: n :: rest -> go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { o with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--setup-only" :: rest -> go { o with setup_only = true } rest
    | "--expect" :: f :: rest -> go { o with expect = Some f } rest
    | a :: _ -> fail "unexpected argument %S" a
  in
  let o =
    go
      { names = []; seed = 1; seconds = 32.; trace = false; quick = false;
        setup_only = false; expect = None }
      (List.tl (Array.to_list argv))
  in
  (* --quick runs every workload at a tenth of its size, for a second *)
  if o.quick then { o with seconds = Float.min o.seconds 1. } else o

let child_args o name ~extra =
  [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
    "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
  @ (if o.quick then [ "--quick" ] else [])
  @ extra

(* Run this binary again with [args]; its standard output, line by line,
   and whether it exited 0. *)
let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (List.filter (fun l -> l <> "") lines, ok)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_string s = "\"" ^ String.escaped s ^ "\""

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (m : metric) ->
            Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string m.name) m.value
              (json_string m.unit_))
          metrics))

let golden_path = "perfbench/golden/seed1.txt"

let load_golden () =
  match In_channel.with_open_text golden_path In_channel.input_all with
  | text ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ k; v ] -> Some (k, v)
          | _ -> None)
        (String.split_on_char '\n' text)
  | exception Sys_error e ->
      prerr_endline ("golden digests unavailable: " ^ e);
      []

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)

let setup_sample o w =
  match run_child (child_args o w.name ~extra:[ "--setup-only" ]) with
  | lines, true -> (
      match List.find_map (fun l -> Scanf.sscanf_opt l "setup_s %f" Fun.id) lines with
      | Some s -> s
      | None -> fail "%s: set-up child printed no set-up time" w.name)
  | _, false -> fail "%s: set-up child failed" w.name

let golden o = if o.seed = 1 && not o.quick then Some (load_golden ()) else None

let run_untraced o w =
  let t_main = Obs.Clock.uptime () in
  (* The other set-up samples come from fresh processes run first, so
     this process's own set-up is not disturbed by them. *)
  let samples = List.init (setup_samples ~quick:o.quick - 1) (fun _ -> setup_sample o w) in
  let session, dt = time (fun () -> w.setup ~seed:o.seed ~quick:o.quick ~golden:(golden o)) in
  let r = session.measure ~seconds:o.seconds in
  session.teardown ();
  {
    r with
    metrics =
      metric "setup_s" "s" (median ((t_main +. dt) :: samples)) :: r.metrics;
  }

(* The traced run measures layers, not a workload: it is the same for
   every workload, on a seeded 4 x 2 grid (1 x 1 when quick) whose first
   2 x 2 cells feed the dispatch probes. *)
let run_traced o w =
  let g = Gen.grid ~seed:o.seed ~tag:"trace" ~faults:(if o.quick then 1 else 4)
      ~scenarios:(if o.quick then 1 else 2) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let miss = List.hd (Gen.faults ~exclude:g.specs (Gen.rng ~seed:o.seed "trace-miss") 1) in
  Layers.run ~name:w.name ~seed:o.seed ~grid:(Gen.campaign_grid g)
    ~probe:(Gen.campaign_grid { g with specs = take 2 g.specs; scenario_numbers = take 2 g.scenario_numbers })
    ~miss

let run_one o w =
  Printf.printf "# %s provenance %s\n%!" w.name (provenance ());
  let r = if o.trace then run_traced o w else run_untraced o w in
  let finite = List.for_all (fun (m : metric) -> Float.is_finite m.value) r.metrics in
  let r = { r with checks = r.checks @ [ ("metrics_finite", finite) ] } in
  List.iter (fun (k, v) -> Printf.printf "# %s note %s %s\n" w.name k v) r.notes;
  List.iter
    (fun (k, ok) -> Printf.printf "# %s check %s %s\n" w.name k (if ok then "ok" else "FAIL"))
    r.checks;
  List.iter
    (fun (m : metric) -> Printf.printf "%s %s %.6g %s\n" w.name m.name m.value m.unit_)
    r.metrics;
  Printf.printf "%s fail_rate %.6g fraction\n" w.name
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let correct = correct r in
  print_endline
    (result_json ~correct ~attempted:r.attempted ~failed:r.failed
       (List.filter (fun (m : metric) -> Float.is_finite m.value) r.metrics));
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* The suite: each workload in a child process                         *)

let declared path ~trace =
  let json =
    match Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  let field k j = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
  Option.value ~default:[]
    (Option.bind (Obs.Json.member (if trace then "per_layer" else "end_to_end") json) Obs.Json.to_list)
  |> List.filter_map (fun m ->
         match (field "name" m, field "unit" m) with
         | Some n, Some u -> Some (n, u)
         | _ -> None)

(* Metric lines [workload name value unit] a child printed. *)
let metric_lines name lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ w; m; v; u ] when w = name && m <> "fail_rate" -> Some (m, (float_of_string v, u))
      | _ -> None)
    lines

(* What the suite keeps of one child's run. *)
type child = {
  child : string;
  tried : int;
  bad : int;
  values : (string * (float * string)) list;  (** metric -> value, unit *)
  grid_csv : string option;
}

let run_suite o names =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expected = Option.map (declared ~trace:o.trace) o.expect in
  let run name =
    let lines, ok = run_child (child_args o name ~extra:[]) in
    List.iter print_endline (List.filter (fun l -> l.[0] <> '{') lines);
    if not ok then problem "%s exited non-zero" name;
    let json =
      Option.bind (List.nth_opt (List.rev lines) 0) (fun l ->
          Result.to_option (Obs.Json.of_string l))
    in
    if json = None then problem "%s printed no result" name;
    let count k =
      Option.bind json (fun j -> Option.bind (Obs.Json.member k j) Obs.Json.to_float)
      |> Option.fold ~none:0 ~some:int_of_float
    in
    let tried = count "attempted" and bad = count "failed" in
    if bad > 0 then problem "%s: %d of %d operations failed" name bad tried;
    let values = metric_lines name lines in
    Option.iter
      (List.iter (fun (m, u) ->
           match List.filter (fun (m', _) -> m' = m) values with
           | [ (_, (_, u')) ] when u' = u -> ()
           | [ (_, (_, u')) ] -> problem "%s: %s has unit %s, declared %s" name m u' u
           | l -> problem "%s: %s emitted %d times" name m (List.length l)))
      expected;
    let grid_csv =
      List.find_map
        (fun l ->
          Option.join
            (Scanf.sscanf_opt l "# %s note csv_md5 %s" (fun w v ->
                 if w = name then Some v else None)))
        lines
    in
    { child = name; tried; bad; values; grid_csv }
  in
  let results = List.map run names in
  (* The two grid workloads ran the same seeded grid. *)
  (match List.filter_map (fun c -> c.grid_csv) results with
  | a :: rest when List.exists (( <> ) a) rest -> problem "grid_cold and grid_sharded CSVs differ"
  | _ -> ());
  List.iter (fun p -> Printf.printf "# problem %s\n" p) (List.rev !problems);
  let correct = !problems = [] in
  print_endline
    (result_json ~correct
       ~attempted:(List.fold_left (fun a c -> a + c.tried) 0 results)
       ~failed:(List.fold_left (fun a c -> a + c.bad) 0 results)
       (List.concat_map
          (fun c -> List.map (fun (m, (v, u)) -> metric (c.child ^ "." ^ m) u v) c.values)
          results));
  if correct then 0 else 1

let main () =
  let o = parse_args Sys.argv in
  match o.names with
  | [ name ] when o.setup_only ->
      let w = find_workload name in
      let session = w.setup ~seed:o.seed ~quick:o.quick ~golden:None in
      Printf.printf "setup_s %.17g\n%!" (Obs.Clock.uptime ());
      session.teardown ();
      0
  | [ name ] -> run_one o (find_workload name)
  | [] -> run_suite o (List.map (fun w -> w.name) workloads)
  | names ->
      List.iter (fun n -> ignore (find_workload n)) names;
      run_suite o names

let () =
  (* Must come first: a re-executed shard worker serves its frames and
     exits here. *)
  Exec.Shard.init ();
  Printexc.record_backtrace true;
  let code =
    try main () with
    | Bench_error e ->
        prerr_endline ("benchmark: " ^ e);
        2
  in
  exit code
