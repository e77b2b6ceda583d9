(* The traced run. Three parts, all measured from outside the program:

   - dispatch probes: small campaigns through the domain pool (with a
     journal), the worker fleet, and the daemon, after which the obs
     registry the program already fills is read for the pool, shard,
     journal, cache and serve counters;
   - the ledger: seeded cells timed end to end on one domain, then
     re-executed layer by layer through each layer's public calls, each
     call wrapped in a benchmark-side [Obs.span]; the per-layer ms/cell
     rows and what they leave unexplained (the residual) are reported;
   - micro-probes of the layers a cell only brushes: journal, analytics,
     shard and wire framing, CSV export.

   Spans stay in memory and are written as an obs/1 snapshot at the end. *)

open Common

let defects = Vehicle.Defects.repaired
let timing = Vehicle.Arbiter.default_timing
let dynamics = Vehicle.Plant.default_dynamics
let window = Scenarios.Runner.default_window
let dt = Vehicle.System.dt

(* Seconds and call counts accumulated per layer. *)
let acc : (string, float * int) Hashtbl.t = Hashtbl.create 32

let add name secs =
  let s, n = Option.value (Hashtbl.find_opt acc name) ~default:(0., 0) in
  Hashtbl.replace acc name (s +. secs, n + 1)

let total name = fst (Option.value (Hashtbl.find_opt acc name) ~default:(0., 0))
let calls name = snd (Option.value (Hashtbl.find_opt acc name) ~default:(0., 0))
let per_call name = total name /. float_of_int (max 1 (calls name))

(* Time one call into a layer, recording a span named after it. *)
let layer name f =
  let r, secs = time (fun () -> Obs.span ("bench." ^ name) f) in
  add name secs;
  r

(* Mean seconds per call of [f] over [n] calls. *)
let mean_call n f =
  let (), secs = time (fun () -> for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done) in
  secs /. float_of_int n

let us x = 1e6 *. x
let ms x = 1e3 *. x

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let snapshot () = Obs.Metrics.snapshot ()

let counter snap name =
  float_of_int (Option.value (List.assoc_opt name snap.Obs.Metrics.snap_counters) ~default:0)

let hist_p50_ms snap name =
  match List.assoc_opt name snap.Obs.Metrics.snap_histograms with
  | Some h -> ms h.Obs.Metrics.p50
  | None -> nan

let hist_sum snap name =
  match List.assoc_opt name snap.Obs.Metrics.snap_histograms with
  | Some h -> h.Obs.Metrics.sum
  | None -> 0.

let ratio hits misses = if hits +. misses = 0. then nan else hits /. (hits +. misses)

(* A cold journaled campaign through the domain pool, then the same grid
   under a second window (outcomes miss, traces hit): pool, journal and
   cache counters. Returns the cold campaign too. *)
let pool_probe ~p grid =
  Obs.Metrics.reset ();
  Scenarios.Runner.clear_cache ();
  let journal = Filename.concat (fresh_dir "probe-pool") "c.jnl" in
  let campaign, wall =
    time (fun () ->
        let c = Scenarios.Campaign.run ~domains:p ~journal grid in
        ignore (Scenarios.Campaign.run ~domains:p ~window:(2. *. window) grid);
        c)
  in
  let s = snapshot () in
  ( campaign,
    [
      metric "pool.task_wait_ms_p50" "ms" (hist_p50_ms s "pool.task_wait_s");
      metric "pool.task_run_ms_p50" "ms" (hist_p50_ms s "pool.task_run_s");
      metric "pool.batches" "count" (counter s "pool.batches");
      metric "pool.busy_frac" "fraction"
        (hist_sum s "pool.task_run_s" /. (wall *. float_of_int p));
      metric "journal.fsync_ms_p50" "ms" (hist_p50_ms s "journal.fsync_s");
      metric "cache.trace_store_hit_ratio" "fraction"
        (ratio (counter s "trace_store.hits") (counter s "trace_store.misses"));
      metric "cache.outcome_hit_ratio" "fraction"
        (ratio (counter s "cache.runner.outcome.hits") (counter s "cache.runner.outcome.misses"));
      metric "cache.trace_store_mb" "MB" (counter s "trace_store.bytes" /. 1048576.);
    ] )

(* The same campaign on a freshly spawned worker fleet. *)
let shard_probe ~p grid =
  Exec.Shard.shutdown_fleets ();
  Exec.Shard.warm ~shards:p ~domains:1 ();
  Obs.Metrics.reset ();
  Scenarios.Runner.clear_cache ();
  ignore (Scenarios.Campaign.run ~shards:p ~domains:1 grid);
  let s = snapshot () in
  Exec.Shard.shutdown_fleets ();
  let utilization =
    List.filter_map
      (fun (name, v) ->
        if String.starts_with ~prefix:"shard.worker" name
           && String.ends_with ~suffix:".utilization" name
        then Some v
        else None)
      s.Obs.Metrics.snap_gauges
  in
  [
    metric "shard.frame_roundtrip_ms_p50" "ms" (hist_p50_ms s "shard.frame_roundtrip_s");
    metric "shard.frames_sent" "count" (counter s "shard.frames_sent");
    metric "shard.busy_frac" "fraction"
      (sum utilization /. float_of_int (max 1 (List.length utilization)));
  ]

(* Store-hit round trips on an idle daemon, then while a lane simulates
   one miss. *)
let serve_probe ~p ~hit ~miss =
  let socket, stop = W_serve.start_daemon ~concurrent:p in
  Obs.Metrics.reset ();
  let submit spec =
    match Serve.Client.submit_and_wait ~socket spec with
    | Ok r -> r.Serve.Client.csv
    | Error e -> fail "serve probe: %s" e
  in
  let stored = submit hit in
  let rtts =
    List.init 50 (fun _ ->
        let csv, secs = time (fun () -> submit hit) in
        if csv <> stored then fail "serve probe: a store hit changed its CSV";
        secs)
  in
  (* Hits while a lane simulates the miss. *)
  let missed = Atomic.make false in
  let miss_client =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set missed true) (fun () -> submit miss))
  in
  let rec loaded acc =
    if Atomic.get missed then acc else loaded (snd (time (fun () -> submit hit)) :: acc)
  in
  let loaded = loaded [] in
  ignore (Domain.join miss_client);
  let s = snapshot () in
  stop ();
  [
    metric "serve.idle_hit_rtt_ms" "ms" (ms (median rtts));
    metric "serve.loaded_hit_rtt_ms" "ms" (ms (median loaded));
    metric "serve.loaded_hit_p99_ms" "ms" (ms (quantile 0.99 loaded));
    metric "serve.queue_wait_ms_p50" "ms" (hist_p50_ms s "serve.queue_wait_s");
    metric "serve.run_ms_p50" "ms" (hist_p50_ms s "serve.request_run_s");
    metric "serve.store_hits" "count" (counter s "serve.store_hits");
  ]

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)

(* One simulation through the layers, mirroring [Runner.run]: digest the
   keys, run the system (kernel + interposer + trace recording), replay
   the bare kernel step loop to split the kernel from the recording, run
   the monitors, classify. Returns the outcome, the ticks simulated and
   the trace's packed size. *)
let simulate (s : Scenarios.Defs.t) (plan : Inject.Plan.t) =
  let sim_key =
    layer "cache.digest" (fun () -> Exec.Memo.digest (s, defects, timing, dynamics, plan))
  in
  ignore (layer "cache.digest" (fun () -> Exec.Memo.digest (sim_key, window)));
  let injected = not (Inject.Plan.is_empty plan) in
  let interposer () = if injected then Some (Inject.Plan.interposer ~dt plan) else None in
  let trace, t_run =
    time (fun () ->
        Obs.span "bench.system.run" (fun () ->
            Vehicle.System.run ~defects ~timing ~dynamics ?interpose:(interposer ())
              ~duration:s.Scenarios.Defs.duration ~objects:s.Scenarios.Defs.objects
              ~events:s.Scenarios.Defs.events ()))
  in
  let n = Tl.Trace.length trace in
  (* The bare kernel: the same ticks on a fresh world, same interposer,
     nothing recorded. The interposer is timed in place. *)
  let world =
    Vehicle.System.world ~defects ~timing ~dynamics ~objects:s.Scenarios.Defs.objects
      ~events:s.Scenarios.Defs.events ()
  in
  let transform = interposer () in
  let t_inj = ref 0. in
  let (), t_steps =
    time (fun () ->
        Obs.span "bench.world.step" (fun () ->
            let prev = ref (Tl.Trace.get trace 0) in
            for i = 1 to n - 1 do
              let now_s = float_of_int i *. dt in
              let next = Sim.World.step world now_s !prev in
              prev :=
                match transform with
                | None -> next
                | Some f ->
                    let t0 = now () in
                    let r = f ~now:now_s next in
                    t_inj := !t_inj +. (now () -. t0);
                    r
            done))
  in
  add "sim" (t_steps -. !t_inj);
  add "inject" !t_inj;
  add "trace" (t_run -. t_steps);
  let results = layer "rtmon" (fun () -> Vehicle.Monitors.run trace) in
  (* The same monitors one by one, summed per location. *)
  List.iter
    (fun (e : Vehicle.Monitors.entry) ->
      let where =
        match e.Vehicle.Monitors.location with
        | Vehicle.Monitors.Vehicle -> "rtmon.vehicle"
        | Vehicle.Monitors.Arbiter -> "rtmon.arbiter"
        | Vehicle.Monitors.Feature _ -> "rtmon.feature"
      in
      ignore
        (layer where (fun () ->
             Rtmon.Incremental.run_trace_status e.Vehicle.Monitors.goal.Kaos.Goal.formal trace)))
    Vehicle.Monitors.all;
  ( layer "classify.outcome" (fun () -> Scenarios.Runner.classify ~window s trace results),
    n - 1,
    Tl.Trace.approx_bytes trace )

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Each cell of [grid] twice, alternating so that drift in the machine's
   speed hits both sides alike: first a cold one-cell [Campaign.run] on
   one domain (CPU and wall time), then the same cell layer by layer.
   Returns whether every re-executed cell equals the campaign's, and the
   metrics. *)
let ledger ~seed (grid : Scenarios.Campaign.grid) =
  let cpu_s = ref 0. and wall_s = ref 0. in
  let ticks = ref 0 and injected_ticks = ref 0 and bytes = ref [] in
  let simulate s plan =
    let o, n, b = simulate s plan in
    ticks := !ticks + n;
    if not (Inject.Plan.is_empty plan) then injected_ticks := !injected_ticks + n;
    bytes := float_of_int b :: !bytes;
    o
  in
  let matches =
    List.concat_map
      (fun fault ->
        List.map
          (fun (s : Scenarios.Defs.t) ->
            Scenarios.Runner.clear_cache ();
            let one = { grid with faults = [ fault ]; grid_scenarios = [ s ] } in
            let c0 = cpu () in
            let campaign, wall = time (fun () -> Scenarios.Campaign.run ~domains:1 one) in
            cpu_s := !cpu_s +. (cpu () -. c0);
            wall_s := !wall_s +. wall;
            let baseline = simulate s Inject.Plan.empty in
            let injected = simulate s (Inject.Plan.make ~seed [ fault ]) in
            ignore
              (layer "cache.digest" (fun () ->
                   Scenarios.Campaign.cell_key ~seed ~window ~defects fault s));
            let cell =
              layer "classify.cell" (fun () ->
                  Scenarios.Campaign.classify_cell ~window ~seed fault ~baseline injected)
            in
            compare campaign.Scenarios.Campaign.cells [ cell ] = 0)
          grid.grid_scenarios)
      grid.faults
  in
  let n_cells = float_of_int (List.length matches) in
  let per_cell name = ms (total name) /. n_cells in
  let rows =
    [
      ("sim", per_cell "sim");
      ("trace", per_cell "trace");
      ("inject", per_cell "inject");
      ("rtmon", per_cell "rtmon");
      ("classify", per_cell "classify.outcome" +. per_cell "classify.cell");
      ("cache", per_cell "cache.digest");
    ]
  in
  let cpu_ms = ms !cpu_s /. n_cells in
  let explained = sum (List.map snd rows) in
  let sims = float_of_int (List.length !bytes) and ticks = float_of_int !ticks in
  let metrics =
    [
      metric "sim.tick_us" "us" (us (total "sim") /. ticks);
      metric "sim.ticks_per_cell" "ticks" (ticks /. n_cells);
      metric "trace.build_us_per_tick" "us" (us (total "trace") /. ticks);
      metric "trace.bytes_per_run" "B" (sum !bytes /. sims);
      metric "inject.interpose_us_per_tick" "us"
        (us (total "inject") /. float_of_int (max 1 !injected_ticks));
      metric "rtmon.all_ms_per_run" "ms" (ms (total "rtmon") /. sims);
      metric "rtmon.vehicle_ms" "ms" (ms (total "rtmon.vehicle") /. sims);
      metric "rtmon.arbiter_ms" "ms" (ms (total "rtmon.arbiter") /. sims);
      metric "rtmon.feature_ms" "ms" (ms (total "rtmon.feature") /. sims);
      metric "classify.outcome_us" "us" (us (per_call "classify.outcome"));
      metric "classify.cell_us" "us" (us (per_call "classify.cell"));
      metric "cache.digest_us" "us" (us (per_call "cache.digest"));
      metric "ledger.cpu_ms_per_cell" "ms" cpu_ms;
      metric "ledger.wall_ms_per_cell" "ms" (ms !wall_s /. n_cells);
    ]
    @ List.map (fun (name, v) -> metric ("ledger." ^ name ^ "_ms_per_cell") "ms" v) rows
    @ [ metric "ledger.residual_pct" "%" (100. *. (cpu_ms -. explained) /. cpu_ms) ]
  in
  (List.for_all Fun.id matches, metrics)

(* ------------------------------------------------------------------ *)
(* Micro-probes                                                        *)

let micro ~(grid : Scenarios.Campaign.grid) (campaign : Scenarios.Campaign.t) =
  let cells = Array.of_list campaign.Scenarios.Campaign.cells in
  let nc = Array.length cells in
  (* A warm [Runner.run]: digest, outcome-cache hit. The first, untimed
     call fills the cache. *)
  let lookup =
    let s = List.hd grid.grid_scenarios in
    let inject = Inject.Plan.make ~seed:grid.seed [ List.hd grid.faults ] in
    let run () = Scenarios.Runner.run ~defects ~inject ~window s in
    ignore (run ());
    mean_call 200 run
  in
  let csv = mean_call 200 (fun () -> Scenarios.Export.campaign_csv campaign) in
  (* Journal: append+fsync in this run's scratch directory, then fold. *)
  let path = Filename.concat (fresh_dir "probe-journal") "j.jnl" in
  let n_rec = 200 in
  let w = Scenarios.Journal.create ~fresh:true path in
  let (), t_append =
    time (fun () ->
        for i = 0 to n_rec - 1 do
          Scenarios.Journal.append w ~key:(string_of_int i) cells.(i mod nc)
        done)
  in
  Scenarios.Journal.close w;
  let fold =
    mean_call 5 (fun () ->
        Scenarios.Journal.fold path ~init:0 ~f:(fun k _ (_ : Scenarios.Campaign.cell) -> k + 1))
  in
  let observe =
    let a = Analytics.Analyze.create () in
    let i = ref 0 in
    mean_call 1000 (fun () ->
        Analytics.Analyze.observe a cells.(!i mod nc);
        incr i)
  in
  let ingest =
    mean_call 5 (fun () -> Analytics.Analyze.ingest (Analytics.Analyze.create ()) path)
  in
  (* Shard frames carry cells in batches; encode one batch of every
     cell, and decode it back. *)
  let batch = Array.to_list cells in
  let frame = Exec.Shard.Frame.encode batch in
  let decode_shard () =
    let b = Exec.Shard.Frame.create () in
    Exec.Shard.Frame.feed b (Bytes.unsafe_of_string frame) (String.length frame);
    match Exec.Shard.Frame.decode b with
    | `Frame (v : Scenarios.Campaign.cell list) -> Some v
    | `Need_more | `Corrupt -> None
  in
  let reply =
    Serve.Wire.Result
      { ticket = 1; csv = Scenarios.Export.campaign_csv { campaign with cells = [ cells.(0) ] }; durable = true }
  in
  let wire = Serve.Wire.Frame.encode reply in
  let decode_wire () =
    let b = Serve.Wire.Frame.create () in
    Serve.Wire.Frame.feed b (Bytes.unsafe_of_string wire) (String.length wire);
    match Serve.Wire.Frame.decode b with
    | `Frame (v : Serve.Wire.response) -> Some v
    | `Need_more | `Corrupt -> None
  in
  let checks =
    [
      ("shard_frame_roundtrip", compare (decode_shard ()) (Some batch) = 0);
      ("wire_frame_roundtrip", decode_wire () = Some reply);
    ]
  in
  let per_cell x = x /. float_of_int nc in
  ( checks,
  [
    metric "cache.lookup_us" "us" (us lookup);
    metric "export.csv_us" "us" (us csv);
    metric "journal.append_us" "us" (us t_append /. float_of_int n_rec);
    metric "journal.bytes_per_record" "B" (float_of_int (file_size path) /. float_of_int n_rec);
    metric "journal.fold_us_per_record" "us" (us fold /. float_of_int n_rec);
    metric "analytics.observe_us" "us" (us observe);
    metric "analytics.ingest_us_per_record" "us" (us ingest /. float_of_int n_rec);
    metric "shard.encode_us_per_cell" "us"
      (us (per_cell (mean_call 200 (fun () -> Exec.Shard.Frame.encode batch))));
    metric "shard.decode_us_per_cell" "us" (us (per_cell (mean_call 200 decode_shard)));
    metric "shard.bytes_per_cell" "B" (per_cell (float_of_int (String.length frame)));
    metric "wire.encode_us" "us" (us (mean_call 1000 (fun () -> Serve.Wire.Frame.encode reply)));
    metric "wire.decode_us" "us" (us (mean_call 1000 decode_wire));
    metric "wire.result_bytes" "B" (float_of_int (String.length wire));
  ] )

(* ------------------------------------------------------------------ *)

let out_dir = Filename.concat bench_dir "out"

(* The whole traced run for the seeded ledger [grid]; [probe] is the
   smaller grid the dispatch probes run, [miss] a fault the daemon has
   not seen. *)
let run ~name ~seed ~(grid : Scenarios.Campaign.grid) ~(probe : Scenarios.Campaign.grid) ~miss =
  let p = width () in
  ignore (Scenarios.Journal.crc32 "");
  let campaign, pool = pool_probe ~p probe in
  let shard = shard_probe ~p probe in
  let serve =
    let s = List.hd probe.grid_scenarios in
    let spec fault = Gen.wire_spec ~seed fault s.Scenarios.Defs.number in
    serve_probe ~p ~hit:(spec (Inject.Fault.to_string (List.hd probe.faults))) ~miss:(spec miss)
  in
  Obs.Trace.reset ();
  let matches, ledger_metrics = ledger ~seed grid in
  let micro_checks, micro_metrics = micro ~grid campaign in
  mkdir_p out_dir;
  Obs.Export.write_file ~name
    (Filename.concat out_dir (Printf.sprintf "%s-seed%d-spans.json" name seed));
  let cells = List.length grid.faults * List.length grid.grid_scenarios in
  {
    attempted = cells;
    failed = (if matches then 0 else cells);
    checks = ("ledger_cells_match_campaign", matches) :: micro_checks;
    notes = [ ("cells", string_of_int cells) ];
    metrics = pool @ shard @ serve @ ledger_metrics @ micro_metrics;
  }
