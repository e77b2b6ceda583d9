(* serve_mixed: an in-process campaign daemon under closed-loop clients.
   Half of the P connections (at least one) send store hits; the other
   half send fresh one-cell specs that a lane must simulate. Hit latency
   is therefore measured while lanes are busy simulating, and a miss's
   latency includes the select loop noticing its result while hits keep
   that loop busy. *)

open Common

(* 2 faults x 1 scenario = 2 stored one-cell hit specs, at every size:
   storing them is set-up, which runs three times per measured run. *)
let inputs ~seed = Gen.grid ~seed ~tag:"serve" ~faults:2 ~scenarios:1

(* Fresh specs a miss client can send; a client that runs out before the
   time is up stops early. A miss takes at least a third of a second. *)
let misses_per_client ~quick = if quick then 8 else 120

let submit ~socket spec =
  match time (fun () -> Serve.Client.submit_and_wait ~socket spec) with
  | Ok r, dt -> (Some r.Serve.Client.csv, dt)
  | Error e, dt ->
      prerr_endline ("serve: request failed: " ^ e);
      (None, dt)

(* The in-process batch CSV for a served spec. *)
let batch_csv (spec : Serve.Wire.spec) =
  let grid =
    {
      Scenarios.Campaign.seed = spec.Serve.Wire.seed;
      faults = List.map Inject.Spec.parse_exn spec.Serve.Wire.faults;
      grid_scenarios = List.map Scenarios.Defs.get spec.Serve.Wire.scenarios;
    }
  in
  Scenarios.Export.campaign_csv (Scenarios.Campaign.run ~domains:1 grid)

(* Start a daemon on its own domain and wait until it answers. *)
let start_daemon ~concurrent =
  let dir = fresh_dir "serve" in
  let cfg =
    {
      (Serve.Server.default_config
         ~socket:(Filename.concat dir "d.sock")
         ~state_dir:(Filename.concat dir "state"))
      with
      Serve.Server.concurrent;
    }
  in
  let daemon = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let socket = cfg.Serve.Server.socket in
  (* The first client call also forces the client's SIGPIPE lazy on
     this domain, before any client domain can race on it. *)
  let rec wait_ready n =
    match Serve.Client.stats ~socket with
    | Ok _ -> ()
    | Error e ->
        if n = 0 then fail "serve daemon never came up: %s" e;
        Unix.sleepf 0.01;
        wait_ready (n - 1)
  in
  wait_ready 1000;
  let stop () =
    (match Serve.Client.drain ~socket with
    | Ok _ -> ()
    | Error e -> prerr_endline ("serve: drain failed: " ^ e));
    Domain.join daemon
  in
  (socket, stop)

(* Run [f c] on [n] client domains, c = 0 .. n-1; results in client order. *)
let on_clients n f =
  List.map Domain.join (List.init n (fun c -> Domain.spawn (fun () -> f c)))

(* What one client did in the timed phase. *)
type client_log = {
  served : int;
  wrong : int;  (** failed, or a CSV other than the batch CSV *)
  hit_s : float list;
  miss : (Serve.Wire.spec * string option * float) list;  (** checked after *)
}

let setup ~seed ~quick =
  let p = width () in
  let hit_clients = max 1 (p / 2) in
  let miss_clients = max 1 (p - hit_clients) in
  let g = inputs ~seed in
  let hits =
    Array.of_list
      (List.concat_map
         (fun spec -> List.map (Gen.wire_spec ~seed spec) g.scenario_numbers)
         g.specs)
  in
  (* Fresh specs for the misses, dealt out to the miss clients: never a
     hit spec and never repeated, each on one of the hit scenarios, so
     the baseline is warm and a miss simulates one injected run. *)
  let misses =
    let st = Gen.rng ~seed "serve-misses" in
    let n = misses_per_client ~quick in
    let fresh = Array.of_list (Gen.faults ~exclude:g.specs st (miss_clients * n)) in
    let scenarios = Array.of_list g.scenario_numbers in
    Array.init miss_clients (fun c ->
        Array.init n (fun k ->
            Gen.wire_spec ~seed fresh.((k * miss_clients) + c) (Gen.pick st scenarios)))
  in
  ignore (Scenarios.Journal.crc32 "");
  Scenarios.Runner.clear_cache ();
  let socket, stop = start_daemon ~concurrent:p in
  (* Store the hit specs, all submitted at once. *)
  let stored = on_clients (Array.length hits) (fun i -> fst (submit ~socket hits.(i))) in
  if List.mem None stored then fail "serve: storing the hit specs failed";
  let expected_hits = Array.map batch_csv hits in
  let measure ~seconds =
    let t0 = now () in
    let deadline = t0 +. seconds in
    let hit_client c =
      let st = Gen.rng ~seed (Printf.sprintf "hits-%d" c) in
      let rec go log =
        if now () >= deadline then log
        else
          let i = Gen.int st (Array.length hits) in
          let csv, dt = submit ~socket hits.(i) in
          go
            {
              log with
              served = log.served + 1;
              wrong = (log.wrong + if csv = Some expected_hits.(i) then 0 else 1);
              hit_s = dt :: log.hit_s;
            }
      in
      go { served = 0; wrong = 0; hit_s = []; miss = [] }
    in
    let miss_client c =
      let rec go k log =
        if now () >= deadline || k = Array.length misses.(c) then log
        else
          let spec = misses.(c).(k) in
          let csv, dt = submit ~socket spec in
          go (k + 1) { log with served = log.served + 1; miss = (spec, csv, dt) :: log.miss }
      in
      go 0 { served = 0; wrong = 0; hit_s = []; miss = [] }
    in
    let logs =
      on_clients (hit_clients + miss_clients) (fun c ->
          if c < hit_clients then hit_client c else miss_client (c - hit_clients))
    in
    let elapsed = now () -. t0 in
    let rss = peak_rss_mb () in
    let served = List.fold_left (fun a l -> a + l.served) 0 logs in
    let hit_s = List.concat_map (fun l -> l.hit_s) logs in
    let miss = List.concat_map (fun l -> List.rev l.miss) logs in
    (* Misses are checked after the clients stop, against an idle
       daemon. *)
    let wrong_misses =
      List.length
        (List.filter
           (fun (spec, csv, _) -> match csv with Some s -> s <> batch_csv spec | None -> true)
           miss)
    in
    let wrong = wrong_misses + List.fold_left (fun a l -> a + l.wrong) 0 logs in
    (* The first miss, served from the daemon's cache, against the slow
       reference path. *)
    let reference =
      let spec = misses.(0).(0) in
      let fault = Inject.Spec.parse_exn (List.hd spec.Serve.Wire.faults) in
      let s = Scenarios.Defs.get (List.hd spec.Serve.Wire.scenarios) in
      let c =
        Scenarios.Campaign.run ~domains:1
          { Scenarios.Campaign.seed; faults = [ fault ]; grid_scenarios = [ s ] }
      in
      compare c.Scenarios.Campaign.cells [ W_grid.reference_cell ~seed fault s ] = 0
    in
    let miss_s = List.map (fun (_, _, dt) -> dt) miss in
    {
      attempted = served;
      failed = wrong;
      checks = [ ("served_equals_batch", wrong = 0); ("reference_cell", reference) ];
      notes =
        [
          ("requests", string_of_int served);
          ("misses", string_of_int (List.length miss));
          ("hit_p50_ms", Printf.sprintf "%.4f" (1000. *. median hit_s));
          ("hit_p99_ms", Printf.sprintf "%.4f" (1000. *. quantile 0.99 hit_s));
        ];
      metrics =
        [
          metric "cells_per_s" "cells/s" (float_of_int served /. elapsed);
          (* A hit runs no campaign: campaign latency is that of the
             misses. *)
          metric "campaign_p50_ms" "ms" (1000. *. median miss_s);
          metric "peak_rss_mb" "MB" rss;
        ];
    }
  in
  { measure; teardown = stop }
