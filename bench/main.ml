(** Benchmark harness: one Bechamel test per regenerated table and figure
    (the full experiment registry), plus micro-benchmarks of the substrate
    (incremental monitoring, reference evaluation, model checking,
    realizability analysis, simulation stepping).

    Scenario simulations are pre-warmed once so the per-table benchmarks
    measure table regeneration over the shared outcomes, not ten repeated
    20-second simulations per sample.

    Besides the human-readable table, every run writes a machine-readable
    [BENCH_smoke.json] / [BENCH_full.json] snapshot in the obs/1 schema:
    the per-benchmark time estimates (ns/run) under ["bench"], alongside
    the exec-engine telemetry (pool/cache counters, latency histograms)
    the warm-up and fleet runs produced. CI validates it with
    [metrics_check] and archives it for cross-commit comparison. *)

open Bechamel
open Toolkit

let null_formatter =
  (* render into a scratch buffer that is cleared after each run *)
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  fun f ->
    f ppf;
    Format.pp_print_flush ppf ();
    let n = Buffer.length buf in
    Buffer.clear buf;
    n

(* ------------------------------------------------------------------ *)
(* One benchmark per experiment (table / figure)                        *)

let experiment_tests =
  List.map
    (fun (e : Core.Experiments.t) ->
      Test.make ~name:e.Core.Experiments.id
        (Staged.stage (fun () -> null_formatter e.Core.Experiments.run)))
    Core.Experiments.all

(* ------------------------------------------------------------------ *)
(* Substrate micro-benchmarks                                           *)

let bench_monitor_step =
  let open Tl in
  let goal = Vehicle.Goals.g4.Kaos.Goal.formal in
  let state =
    State.of_list
      [
        (Vehicle.Signals.host_speed, Value.Float 0.);
        (Vehicle.Signals.host_accel, Value.Float 0.);
        (Vehicle.Signals.throttle_pedal, Value.Float 0.);
        (Vehicle.Signals.hmi_go, Value.Bool false);
        (Vehicle.Signals.va_source, Value.Sym "Driver");
      ]
  in
  let m0 = Rtmon.Incremental.create ~dt:0.001 goal in
  Test.make ~name:"micro_monitor_step_goal4"
    (Staged.stage (fun () -> ignore (Rtmon.Incremental.step m0 state)))

let bench_monitor_trace =
  let open Tl in
  let trace =
    Trace.init ~dt:0.001 1000 (fun i ->
        State.of_list
          [ ("p", Value.Bool (i mod 3 = 0)); ("q", Value.Bool (i mod 5 <> 0)) ])
  in
  let phi =
    Formula.entails
      (Formula.prev_for 0.05 (Formula.bvar "p"))
      (Formula.once_within 0.01 (Formula.bvar "q"))
  in
  Test.make ~name:"micro_monitor_1k_states"
    (Staged.stage (fun () -> ignore (Rtmon.Incremental.run_trace phi trace)))

let bench_reference_eval =
  let open Tl in
  let trace =
    Trace.init ~dt:1.0 64 (fun i -> State.of_list [ ("p", Value.Bool (i mod 2 = 0)) ])
  in
  let phi = Formula.hist (Formula.once (Formula.bvar "p")) in
  Test.make ~name:"micro_reference_eval"
    (Staged.stage (fun () -> ignore (Eval.series trace phi)))

let bench_mc_elevator =
  Test.make ~name:"micro_mc_elevator_composition"
    (Staged.stage (fun () -> ignore (Elevator.Verification.check ())))

let bench_patterns =
  let form = List.hd Kaos.Patterns.forms in
  Test.make ~name:"micro_realizability_table"
    (Staged.stage (fun () -> ignore (Kaos.Patterns.table form)))

let bench_sim_elevator =
  Test.make ~name:"micro_elevator_sim_5s"
    (Staged.stage (fun () ->
         let config = { Elevator.Simulation.default_config with duration = 5.0 } in
         ignore (Elevator.Simulation.run ~config ())))

let bench_vehicle_scenario =
  (* cache bypassed: this one measures the simulation itself *)
  Test.make ~name:"micro_vehicle_scenario_1"
    (Staged.stage (fun () ->
         ignore (Scenarios.Runner.run ~use_cache:false (Scenarios.Defs.get 1))))

let micro_tests =
  [
    bench_monitor_step;
    bench_monitor_trace;
    bench_reference_eval;
    bench_mc_elevator;
    bench_patterns;
    bench_sim_elevator;
    bench_vehicle_scenario;
  ]

(* ------------------------------------------------------------------ *)

let run_test test =
  let quota = Time.second 0.25 in
  let cfg = Benchmark.cfg ~limit:200 ~quota ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances test in
  Analyze.all ols Instance.monotonic_clock raw

(* The single OLS time estimate of a run, in ns, if the fit produced one. *)
let estimate_ns result =
  Hashtbl.fold
    (fun _k ols acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match Analyze.OLS.estimates ols with Some [ t ] -> Some t | _ -> None))
    result None

let pp_estimate name = function
  | Some t ->
      let t, unit_ =
        if t > 1e9 then (t /. 1e9, "s")
        else if t > 1e6 then (t /. 1e6, "ms")
        else if t > 1e3 then (t /. 1e3, "us")
        else (t, "ns")
      in
      Fmt.pr "%-34s %10.2f %s/run@." name t unit_
  | None -> Fmt.pr "%-34s (no estimate)@." name

(* Monotonic ([Obs.Clock]), not [Unix.gettimeofday]: an NTP step during a
   multi-minute bench run must not corrupt the headline numbers. *)
let wall = Obs.Clock.elapsed

(* ------------------------------------------------------------------ *)
(* Campaign-service round-trip: the daemon's overhead per request.      *)

(* A serve row's temporary directory goes once its daemon has drained. *)
let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* An in-process daemon (own Domain, temp socket): the first submission
   runs a one-cell campaign and lands in the result store; the timed
   loop then measures the client round trip of a store hit on the
   session the client keeps open — submit, digest lookup, CSV reply —
   i.e. the service overhead a warm request pays on top of the campaign
   work itself. Connecting and greeting happen once, before the loop. *)
let serve_roundtrip_row () =
  let dir = Filename.temp_dir "bench-serve" "" in
  let cfg =
    Serve.Server.default_config
      ~socket:(Filename.concat dir "d.sock")
      ~state_dir:(Filename.concat dir "state")
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let socket = cfg.Serve.Server.socket in
  let rec wait_ready n =
    match Serve.Client.stats ~socket with
    | Ok _ -> ()
    | Error _ ->
        if n = 0 then failwith "bench: serve daemon never came up";
        Unix.sleepf 0.05;
        wait_ready (n - 1)
  in
  wait_ready 100;
  let spec =
    {
      Serve.Wire.seed = 42;
      faults = [ "stuck=3:ca_accel_req" ];
      scenarios = [ 1 ];
      window = None;
      retries = 0;
    }
  in
  let submit () =
    match Serve.Client.submit_and_wait ~socket spec with
    | Ok r -> r
    | Error e -> failwith ("bench: serve submit failed: " ^ e)
  in
  ignore (submit ());
  (* The lane that ran the first submission runs a full major collection
     after it hands the result over (the daemon's memory pacing). Wait
     that out: hits sent during it time the collection, not the service
     (about one loop in ten read some 25 times the usual round trip). *)
  Unix.sleepf 0.25;
  let rounds = 50 in
  let _, t =
    wall (fun () ->
        for _ = 1 to rounds do
          ignore (submit ())
        done)
  in
  (match Serve.Client.drain ~socket with
  | Ok _ -> ()
  | Error e -> failwith ("bench: serve drain failed: " ^ e));
  Domain.join daemon;
  rm_rf dir;
  let ns = t *. 1e9 /. float_of_int rounds in
  pp_estimate "serve_roundtrip (store hit)" (Some ns);
  ("serve_roundtrip", ns)

(* Counters of the daemon's live obs/1 snapshot, in the order of
   [names] (0 for a counter not registered yet). *)
let serve_counters ~socket names =
  match Serve.Client.stats ~socket with
  | Error e -> failwith ("bench: serve stats failed: " ^ e)
  | Ok s -> (
      match Obs.Json.of_string s with
      | Error e -> failwith ("bench: unreadable serve stats: " ^ e)
      | Ok j ->
          let counters = Obs.Json.member "counters" j in
          List.map
            (fun name ->
              Option.value ~default:0.
                (Option.bind
                   (Option.bind counters (Obs.Json.member name))
                   Obs.Json.to_float))
            names)

(* Fleet-share contention: a long grid occupies the daemon when a
   1-cell store-miss request arrives. Each lane runs its campaign on
   its own domain, so with one executor lane the probe head-of-line
   blocks behind the rest of the grid; with two lanes it runs
   immediately on the free lane. The perf gate asserts
   [serve_concurrent < serve_roundtrip_blocked] — the daemon's reason
   to exist past one campaign at a time, measured: a simulated cell on
   a free lane against one queued behind the grid. *)
let serve_contention_row ~concurrent ~name =
  let dir = Filename.temp_dir "bench-serve" "" in
  let cfg =
    {
      (Serve.Server.default_config
         ~socket:(Filename.concat dir "d.sock")
         ~state_dir:(Filename.concat dir "state"))
      with
      Serve.Server.concurrent;
      domains = Some 1;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let socket = cfg.Serve.Server.socket in
  let rec wait_ready n =
    match Serve.Client.stats ~socket with
    | Ok _ -> ()
    | Error _ ->
        if n = 0 then failwith "bench: serve daemon never came up";
        Unix.sleepf 0.05;
        wait_ready (n - 1)
  in
  wait_ready 100;
  (* Occupy a lane: submit the long grid on a raw session that stays
     open (an orphaned request would be cancelled, not block). Each row
     has a seed of its own: outcomes are cached process-wide, and a grid
     an earlier row already ran would finish before the probe. *)
  let long =
    {
      Serve.Wire.seed = 42 + concurrent;
      faults = [ "stuck=3:ca_accel_req"; "delay=150:accel_cmd" ];
      scenarios = [ 1; 2; 3 ];
      window = None;
      retries = 0;
    }
  in
  let long_cells =
    float_of_int
      (List.length long.Serve.Wire.faults * List.length long.Serve.Wire.scenarios)
  in
  (* The counters are process-wide: the daemon runs in this process. *)
  let progress () =
    serve_counters ~socket
      [ "serve.slot_leases"; "campaign.cells_executed"; "serve.requests_completed" ]
  in
  let before = progress () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let buf = Serve.Wire.Frame.create () in
  let recv () =
    match Serve.Wire.Frame.read fd buf with
    | `Frame (v : Serve.Wire.response) -> v
    | `Corrupt -> failwith "bench: corrupt frame from serve daemon"
    | `Eof -> failwith "bench: serve daemon closed the connection"
  in
  Serve.Wire.Frame.write fd
    (Serve.Wire.Hello { proto = Serve.Wire.proto_version; client = "bench" });
  (match recv () with
  | Serve.Wire.Welcome _ -> ()
  | _ -> failwith "bench: expected Welcome");
  Serve.Wire.Frame.write fd (Serve.Wire.Submit { spec = long; deadline_s = None });
  (match recv () with
  | Serve.Wire.Accepted _ -> ()
  | _ -> failwith "bench: long grid not admitted");
  (* Send the probe once the daemon's counters show the grid running on
     its lane with cells left, and refuse to time a probe sent after the
     grid finished: it would measure an idle daemon, not contention. *)
  let rec wait_running polls =
    match List.map2 ( -. ) (progress ()) before with
    | [ leases; executed; completed ] ->
        if completed > 0. || executed >= long_cells then
          failwith "bench: the long grid finished before the contention probe was sent"
        else if leases < 1. then begin
          if polls = 0 then failwith "bench: the long grid never started";
          Unix.sleepf 0.002;
          wait_running (polls - 1)
        end
    | _ -> assert false
  in
  wait_running 5000;
  (* The probe is a cell no earlier row ran: with [serve_roundtrip]'s
     spec, or the other contention row's, it would be an outcome-cache
     hit that only classifies. *)
  let probe =
    {
      Serve.Wire.seed = 142 + concurrent;
      faults = [ "stuck=3:ca_accel_req" ];
      scenarios = [ 1 ];
      window = None;
      retries = 0;
    }
  in
  let _, t =
    wall (fun () ->
        match Serve.Client.submit_and_wait ~socket probe with
        | Ok _ -> ()
        | Error e -> failwith ("bench: contention probe failed: " ^ e))
  in
  (* Let the grid finish before the drain, which would abort its
     remaining cells: the committed baseline pins [pool.tasks_failed]
     at 0. *)
  let rec wait_settled polls =
    match List.map2 ( -. ) (progress ()) before with
    | [ _; _; completed ] when completed >= 2. -> ()
    | _ ->
        if polls = 0 then failwith "bench: the long grid never finished";
        Unix.sleepf 0.01;
        wait_settled (polls - 1)
  in
  wait_settled 6000;
  (match Serve.Client.drain ~socket with
  | Ok _ -> ()
  | Error e -> failwith ("bench: serve drain failed: " ^ e));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Domain.join daemon;
  rm_rf dir;
  let ns = t *. 1e9 in
  pp_estimate name (Some ns);
  (name, ns)

(* ------------------------------------------------------------------ *)
(* Full-fleet regeneration: the hot path the exec engine parallelizes.  *)

(* The fleet through the multi-process backend: the function and inputs
   of [Runner.run_all ~use_cache:false], on [shards] workers of
   [domains] domains each. A failed scenario fails the row. *)
let sharded_fleet ~shards ~domains =
  List.iter
    (function Ok _ -> () | Error (e : Exec.Pool.error) -> raise e.Exec.Pool.exn)
    (Exec.Shard.try_map ~shards ~domains
       (Scenarios.Runner.run ~use_cache:false)
       Scenarios.Defs.all)

let fleet_comparison ~shards () =
  let n = max 1 (Domain.recommended_domain_count ()) in
  Fmt.pr "@.full-fleet regeneration (10 scenarios, cache bypassed)@.";
  Fmt.pr "%s@." (String.make 50 '-');
  let _, t_seq =
    wall (fun () -> Scenarios.Runner.run_all ~use_cache:false ~domains:1 ())
  in
  Fmt.pr "%-34s %10.2f s@." "sequential (1 domain)" t_seq;
  let _, t_par =
    wall (fun () -> Scenarios.Runner.run_all ~use_cache:false ~domains:n ())
  in
  Fmt.pr "%-34s %10.2f s  (%.2fx)@."
    (Fmt.str "parallel (%d domains)" n)
    t_par (t_seq /. t_par);
  (* Same fleet through the multi-process backend: [shards] workers of
     [n / shards] domains each, so the three rows compare one process /
     one domain, one process / n domains, and shards × domains. The
     fleet is warmed first so the row times the work, not the spawn. *)
  let s = max 1 shards in
  let d = max 1 (n / s) in
  Exec.Shard.warm ~shards:s ~domains:d ();
  let _, t_shard = wall (fun () -> sharded_fleet ~shards:s ~domains:d) in
  Fmt.pr "%-34s %10.2f s  (%.2fx)@."
    (Fmt.str "sharded (%d procs x %d domains)" s d)
    t_shard (t_seq /. t_shard);
  let _, t_warm = wall (fun () -> Scenarios.Runner.run_all ()) in
  Fmt.pr "%-34s %10.4f s@." "warm cache" t_warm;
  let cells = List.length Scenarios.Defs.all in
  (* whole-run timings as bench entries, normalized to ns like the rest;
     [per_cell_us] is the sequential per-scenario cost in microseconds —
     the unit sizing batch and shard decisions. *)
  [
    ("fleet_sequential", t_seq *. 1e9);
    ("fleet_parallel", t_par *. 1e9);
    ("fleet_sharded", t_shard *. 1e9);
    ("fleet_warm_cache", t_warm *. 1e9);
    ("per_cell_us", t_seq *. 1e6 /. float_of_int (max 1 cells));
  ]

let run_bench tests =
  Fmt.pr "@.%-34s %14s@." "benchmark" "time";
  Fmt.pr "%s@." (String.make 50 '-');
  List.filter_map
    (fun test ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let est = estimate_ns (run_test test) in
      pp_estimate name est;
      Option.map (fun t -> (name, t)) est)
    tests

let write_snapshot ~name bench =
  let path = Fmt.str "BENCH_%s.json" name in
  Obs.Export.write_file ~name ~bench path;
  Fmt.pr "@.wrote %s (%d estimates)@." path (List.length bench)

(* [--flag N] in [Sys.argv], if present ([None] otherwise). The bench
   keeps raw argv parsing — two flags don't justify a cmdliner term. *)
let int_argv flag =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = flag then int_of_string_opt Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let () =
  (* Must precede everything else: when this process is a shard worker
     (re-executed by a sharded fleet run), it serves its frames and exits
     here instead of running the benchmarks. *)
  Exec.Shard.init ();
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let shards = int_argv "--shards" in
  if smoke then begin
    (* CI smoke: one experiment over one pre-warmed scenario, minimal
       samples — proves the perf harness still compiles and runs. *)
    Fmt.pr "bench smoke: pre-warming scenario 1…@.";
    let _, t = wall (fun () -> ignore (Core.Experiments.outcome 1)) in
    Fmt.pr "scenario 1 simulated in %.2f s@." t;
    let smoke_test =
      match List.filter (fun (e : Core.Experiments.t) -> e.Core.Experiments.id = "table_d_1") Core.Experiments.all with
      | e :: _ ->
          Test.make ~name:e.Core.Experiments.id
            (Staged.stage (fun () -> null_formatter e.Core.Experiments.run))
      | [] -> assert false
    in
    let estimates = run_bench [ smoke_test ] in
    (* With [--shards N] the smoke run also times the fleet through the
       multi-process backend against the sequential baseline, so CI gets
       a sharded snapshot row without the full bench's cost. *)
    let sharded_rows =
      match shards with
      | None -> []
      | Some s ->
          Fmt.pr "@.smoke fleet, sequential vs %d shards@." s;
          let _, t_seq =
            wall (fun () ->
                Scenarios.Runner.run_all ~use_cache:false ~domains:1 ())
          in
          Fmt.pr "%-34s %10.2f s@." "fleet sequential" t_seq;
          (* Warm the fleet first: the row times the sharded work, not
             the one-off worker spawn the fleet amortizes away. *)
          Exec.Shard.warm ~shards:s ~domains:1 ();
          let _, t_shard = wall (fun () -> sharded_fleet ~shards:s ~domains:1) in
          Fmt.pr "%-34s %10.2f s  (%.2fx)@."
            (Fmt.str "fleet sharded (%d procs)" s)
            t_shard (t_seq /. t_shard);
          let cells = List.length Scenarios.Defs.all in
          [
            ("fleet_sequential", t_seq *. 1e9);
            ("fleet_sharded", t_shard *. 1e9);
            ("per_cell_us", t_seq *. 1e6 /. float_of_int (max 1 cells));
          ]
    in
    let serve_row = serve_roundtrip_row () in
    let blocked_row =
      serve_contention_row ~concurrent:1 ~name:"serve_roundtrip_blocked"
    in
    let concurrent_row =
      serve_contention_row ~concurrent:2 ~name:"serve_concurrent"
    in
    write_snapshot ~name:"smoke"
      ((("prewarm_scenario_1", t *. 1e9)
       :: serve_row :: blocked_row :: concurrent_row :: sharded_rows)
      @ estimates)
  end
  else begin
    (* Pre-warm the scenario outcomes — in parallel, through the exec
       engine — so table benches measure regeneration over the shared
       cache, not repeated 20-second simulations. *)
    Fmt.pr "pre-warming scenario simulations (%d domains)…@."
      (max 1 (Domain.recommended_domain_count ()));
    let _, t = wall (fun () -> Core.Experiments.prewarm ()) in
    Fmt.pr "fleet warmed in %.2f s@." t;
    let fleet = fleet_comparison ~shards:(Option.value shards ~default:2) () in
    let serve_row = serve_roundtrip_row () in
    let blocked_row =
      serve_contention_row ~concurrent:1 ~name:"serve_roundtrip_blocked"
    in
    let concurrent_row =
      serve_contention_row ~concurrent:2 ~name:"serve_concurrent"
    in
    let estimates = run_bench (micro_tests @ experiment_tests) in
    write_snapshot ~name:"full"
      ((("prewarm_fleet", t *. 1e9)
       :: serve_row :: blocked_row :: concurrent_row :: fleet)
      @ estimates)
  end
