(* grid_cold and grid_sharded: one seeded campaign grid, run cold again
   and again. Both workloads draw the same grid for a seed, so their CSVs
   must agree byte for byte; only the dispatch differs (domain pool in
   one process, or a resident fleet of worker processes). *)

open Common

(* 6 faults on 1 scenario = 6 cells; the quick size is 2 x 1. One
   scenario keeps the work of a repetition fixed: whichever worker draws
   which cell, each simulates the scenario's baseline once. With two
   scenarios a fleet simulates between two and four baselines, depending
   on the dispatch order, and repetition times spread by about 15%. *)
let inputs ~seed ~quick =
  Gen.grid ~seed ~tag:"grid" ~faults:(if quick then 2 else 6) ~scenarios:1

let defects = Vehicle.Defects.repaired
let window = Scenarios.Runner.default_window

(* The slow reference path for one cell: both runs recomputed with the
   cache bypassed, then classified exactly as the campaign does. *)
let reference_cell ~seed (fault : Inject.Fault.t) (s : Scenarios.Defs.t) =
  let run inject =
    Scenarios.Runner.run ~use_cache:false ~defects ~inject ~window s
  in
  let baseline = run Inject.Plan.empty in
  let injected = run (Inject.Plan.make ~seed [ fault ]) in
  Scenarios.Campaign.classify_cell ~window ~seed fault ~baseline injected

let find_cell (c : Scenarios.Campaign.t) (fault : Inject.Fault.t) n =
  List.find_opt
    (fun (cell : Scenarios.Campaign.cell) ->
      cell.Scenarios.Campaign.scenario = n && cell.Scenarios.Campaign.fault = fault)
    c.Scenarios.Campaign.cells

(* One seeded cell of [c] must equal its slow-path recomputation. *)
let reference_check ~seed (g : Scenarios.Campaign.grid) c =
  let st = Gen.rng ~seed "reference-cell" in
  let fault = List.nth g.faults (Gen.int st (List.length g.faults)) in
  let s = List.nth g.grid_scenarios (Gen.int st (List.length g.grid_scenarios)) in
  match find_cell c fault s.Scenarios.Defs.number with
  | None -> false
  | Some cell -> compare cell (reference_cell ~seed fault s) = 0

let golden_key = "grid_csv_md5"

let setup ~sharded ~seed ~quick ~golden =
  let p = width () in
  let g = inputs ~seed ~quick in
  let grid = Gen.campaign_grid g in
  let dir = fresh_dir "grid" in
  let run ?journal grid =
    if sharded then Scenarios.Campaign.run ~shards:p ~domains:1 ?journal grid
    else Scenarios.Campaign.run ~domains:p ?journal grid
  in
  (* Force the CRC table before any domain can race on it (see README,
     "Known bug"). *)
  ignore (Scenarios.Journal.crc32 "");
  (* Warm-up: one cell of a fault outside the grid, through the same
     dispatch, so one-time costs (code paths, heap growth, the fleet's
     first spawn) land in set-up, not in the first repetition. *)
  let warm_fault = Gen.faults ~exclude:g.specs (Gen.rng ~seed "grid-warm-up") 1 in
  ignore (run (Gen.campaign_grid { g with specs = warm_fault }));
  let cells = List.length g.specs * List.length g.scenario_numbers in
  let measure ~seconds =
    let reps = ref [] and failed = ref 0 and attempted = ref 0 in
    let csvs = ref [] and last = ref None in
    timebox ~seconds ~min_reps:3 (fun i ->
        (* Cold caches for every repetition: the coordinator's cache is
           cleared and, when sharded, the fleet is respawned so the
           workers' caches start empty too. Neither is timed. *)
        Scenarios.Runner.clear_cache ();
        if sharded then begin
          Exec.Shard.shutdown_fleets ();
          Exec.Shard.warm ~shards:p ~domains:1 ()
        end;
        Gc.full_major ();
        let journal = Filename.concat dir (Printf.sprintf "rep-%d.jnl" i) in
        attempted := !attempted + cells;
        match time (fun () -> run ~journal grid) with
        | c, dt ->
            let r = c.Scenarios.Campaign.robustness in
            failed := !failed + r.Scenarios.Campaign.quarantined;
            reps := dt :: !reps;
            csvs := Scenarios.Export.campaign_csv c :: !csvs;
            last := Some c;
            Sys.remove journal
        | exception e ->
            prerr_endline ("grid: campaign failed: " ^ Printexc.to_string e);
            failed := !failed + cells);
    let rss = peak_rss_mb () in
    let reps = List.rev !reps in
    let csv_md5 =
      match !csvs with [] -> "none" | c :: _ -> Digest.to_hex (Digest.string c)
    in
    let same_csv =
      match !csvs with [] -> false | c :: rest -> List.for_all (String.equal c) rest
    in
    let reference =
      match !last with None -> false | Some c -> reference_check ~seed grid c
    in
    let golden_ok =
      match golden with
      | None -> []
      | Some tbl -> [ ("golden_" ^ golden_key, List.assoc_opt golden_key tbl = Some csv_md5) ]
    in
    {
      attempted = !attempted;
      failed = !failed;
      checks =
        [ ("reps_csv_identical", same_csv); ("reference_cell", reference) ]
        @ golden_ok;
      notes =
        [
          ("csv_md5", csv_md5);
          ("rep_s", String.concat "," (List.map (Printf.sprintf "%.3f") reps));
        ];
      metrics =
        [
          metric "cells_per_s" "cells/s"
            (median (List.map (fun dt -> float_of_int cells /. dt) reps));
          metric "campaign_p50_ms" "ms" (1000. *. median reps);
          metric "peak_rss_mb" "MB" rss;
        ];
    }
  in
  let teardown () = if sharded then Exec.Shard.shutdown_fleets () in
  { measure; teardown }
