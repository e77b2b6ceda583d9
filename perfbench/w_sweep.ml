(* sweep_mine: re-classify a warm grid under many windows, journaling
   every cell, then mine the journals. The timed phase runs rounds of
   [round] windows, each window one journaled campaign into a fresh
   journal, followed by [passes] mining passes over the round's journals.
   No simulation happens: the work is digest and cache lookup,
   classification, pool fan-out, journal append and fsync (writes), then
   journal folds and analytics (reads) over the same bytes. Rounds keep
   memory flat however many windows a run reaches. *)

open Common

(* 4 faults x 2 scenarios = 8 cells per window; the quick size is 1 x 1.
   With 4 x 1, the fixed cost of a window (journal creation and fsync,
   waking the pool) outweighed its cells, and runs spread by twice as
   much. *)
let inputs ~seed ~quick =
  let faults, scenarios = if quick then (1, 1) else (4, 2) in
  Gen.grid ~seed ~tag:"sweep" ~faults ~scenarios

(* The cascade golden covers the first windows of the sweep, so it does
   not depend on how many rounds a time-boxed run reaches. *)
let golden_windows = 64
let golden_key = "sweep_cascade_md5"

let trace_store_misses () =
  (Scenarios.Trace_store.stats ()).Exec.Memo.misses

let csv_digests a =
  List.map
    (fun csv -> Digest.string (csv a))
    Analytics.Analyze.[ cascade_csv; trajectory_csv; residual_csv ]

let setup ~seed ~quick ~golden =
  let p = width () in
  let g = inputs ~seed ~quick in
  let grid = Gen.campaign_grid g in
  let windows = Gen.windows ~seed in
  let round = if quick then 26 else 260 and passes = if quick then 2 else 10 in
  let dir = fresh_dir "sweep" in
  (* The CRC table behind every journal append is built by a lazy that is
     not domain-safe: two pool domains appending the first records of the
     process at once raise [CamlinternalLazy.Undefined] (README, "Known
     bug"). Force it here, on one domain, before the sweep fans out. *)
  ignore (Scenarios.Journal.crc32 "");
  (* Warmed on one domain: a deterministic allocation order keeps the
     set-up's share of the peak RSS steady from run to run (warmed on two
     domains, peak RSS spread by 17% over ten runs). *)
  Scenarios.Runner.clear_cache ();
  ignore (Scenarios.Campaign.run ~domains:1 grid);
  let cells = List.length g.specs * List.length g.scenario_numbers in
  let measure ~seconds =
    let sims_before = trace_store_misses () in
    let latencies = ref [] and rates = ref [] in
    let attempted = ref 0 and n_cells = ref 0 and mined_ok = ref true in
    (* The first windows of the first round feed the golden cascade. *)
    let prefix = Analytics.Analyze.create () in
    timebox ~seconds ~min_reps:1 (fun r ->
        (* The returned cells feed an in-memory analyzer (untimed) that
           the mined journals must match. *)
        let reference = Analytics.Analyze.create () in
        Gc.full_major ();
        (* Writes: one journaled campaign per window. *)
        let sweep_s = ref 0. in
        let journals =
          List.filter_map
            (fun k ->
              let i = (r * round) + k in
              let journal = Filename.concat dir (Printf.sprintf "w%d.jnl" i) in
              attempted := !attempted + cells;
              match
                time (fun () ->
                    Scenarios.Campaign.run ~domains:p
                      ~window:windows.(i mod Array.length windows)
                      ~journal grid)
              with
              | c, dt ->
                  latencies := dt :: !latencies;
                  sweep_s := !sweep_s +. dt;
                  List.iter
                    (fun cell ->
                      incr n_cells;
                      Analytics.Analyze.observe reference cell;
                      if i < golden_windows then Analytics.Analyze.observe prefix cell)
                    c.Scenarios.Campaign.cells;
                  Some journal
              | exception e ->
                  prerr_endline ("sweep: window failed: " ^ Printexc.to_string e);
                  None)
            (List.init round Fun.id)
        in
        (* Reads: every journal of the round, mined from scratch on every
           pass. The first and last passes are checked table by table,
           every pass by its record count. *)
        let expected = csv_digests reference in
        let records = Analytics.Analyze.records reference in
        let mine_s = ref 0. in
        for k = 0 to passes - 1 do
          let a = Analytics.Analyze.create () in
          let (), dt = time (fun () -> List.iter (Analytics.Analyze.ingest a) journals) in
          mine_s := !mine_s +. dt;
          if Analytics.Analyze.records a <> records
             || ((k = 0 || k = passes - 1) && csv_digests a <> expected)
          then mined_ok := false
        done;
        rates := (float_of_int records /. (!sweep_s +. !mine_s)) :: !rates;
        List.iter Sys.remove journals);
    let rss = peak_rss_mb () in
    let cascade_md5 = Digest.to_hex (Digest.string (Analytics.Analyze.cascade_csv prefix)) in
    {
      attempted = !attempted;
      (* a failed window, or a cell missing from a window, is a failure *)
      failed = !attempted - !n_cells;
      checks =
        [
          ("mined_equals_in_memory", !mined_ok);
          ("sweep_simulated_nothing", trace_store_misses () = sims_before);
        ]
        @ Option.fold golden ~none:[] ~some:(fun tbl ->
              [ ("golden_" ^ golden_key, List.assoc_opt golden_key tbl = Some cascade_md5) ]);
      notes =
        [
          ("windows", string_of_int (List.length !latencies));
          ("rounds", string_of_int (List.length !rates));
          ("records", string_of_int !n_cells);
          ("cascade_md5", cascade_md5);
          ("round_cells_per_s",
           String.concat "," (List.rev_map (Printf.sprintf "%.0f") !rates));
        ];
      metrics =
        [
          metric "cells_per_s" "cells/s" (median !rates);
          metric "campaign_p50_ms" "ms" (1000. *. median !latencies);
          metric "peak_rss_mb" "MB" rss;
        ];
    }
  in
  { measure; teardown = ignore }
