(** [export] — write scenario traces, figure series and violation tables as
    CSV files for external plotting.

    {v
    export figures --out-dir plots/          # every fig_5_* as CSV
    export scenario 3 --out-dir plots/       # full trace + violations
    export scenario 3 --repaired -s host_speed -s ca_accel_req
    export campaign --seed 42 --out-dir plots/   # detection-coverage matrix
    export campaign --journal c.jnl --retries 2  # crash-safe campaign
    export campaign --journal c.jnl --resume     # finish a killed run;
                                                 # CSV identical to an
                                                 # uninterrupted export
    v}

    [campaign] takes the same command line as [experiments campaign]
    ({!Campaign_cli}) plus [--out-dir], and reads and writes the same
    journal records, so either command resumes the other's journal. *)

open Cmdliner

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let out_dir =
  Arg.(value & opt string "." & info [ "out-dir"; "o" ] ~doc:"Output directory.")

let figures_cmd =
  let domains =
    Campaign_cli.domains ~doc:"Simulate the fleet on $(docv) domains (1 = sequential)."
  in
  let run out_dir domains shards metrics =
    ensure_dir out_dir;
    (* Warm the shared outcome cache for the whole fleet in parallel; each
       figure below then reads its scenario's outcome from the cache.
       (Sharded warm-up still simulates in workers, but classification
       outcomes return to this process's cache, so the figures below are
       cache hits either way.) *)
    ignore (Scenarios.Runner.run_all ?domains ?shards ());
    Obs.span "export.figures" (fun () ->
        List.iter
          (fun (fig : Scenarios.Figures.t) ->
            let o =
              Scenarios.Runner.run (Scenarios.Defs.get fig.Scenarios.Figures.scenario)
            in
            let path = Filename.concat out_dir (fig.Scenarios.Figures.id ^ ".csv") in
            Scenarios.Export.write_file path (Scenarios.Export.figure_csv fig o);
            Fmt.pr "wrote %s@." path)
          Scenarios.Figures.all);
    Campaign_cli.write_metrics ~name:"export_figures" metrics
  in
  Cmd.v (Cmd.info "figures" ~doc:"Export every regenerated figure as CSV.")
    Term.(const run $ out_dir $ domains $ Campaign_cli.shards $ Campaign_cli.metrics)

let scenario_cmd =
  let scenario =
    Arg.(required & pos 0 (some Campaign_cli.scenario) None & info [] ~docv:"SCENARIO")
  in
  let repaired =
    Arg.(value & flag & info [ "repaired" ] ~doc:"Run with every defect fixed.")
  in
  let signals =
    Arg.(value & opt_all string [] & info [ "signal"; "s" ] ~doc:"Restrict trace columns.")
  in
  let stride =
    Arg.(value & opt int 10 & info [ "stride" ] ~doc:"Keep every Nth state (default 10).")
  in
  let run (s : Scenarios.Defs.t) out_dir repaired signals stride =
    let n = s.Scenarios.Defs.number in
    ensure_dir out_dir;
    let defects =
      if repaired then Vehicle.Defects.repaired else Vehicle.Defects.as_evaluated
    in
    let o = Scenarios.Runner.run ~defects s in
    let suffix = if repaired then "_repaired" else "" in
    let trace_path = Filename.concat out_dir (Fmt.str "scenario_%d%s.csv" n suffix) in
    let signals = match signals with [] -> None | l -> Some l in
    Scenarios.Export.write_file trace_path
      (Scenarios.Export.trace_csv ?signals ~stride o.Scenarios.Runner.trace);
    Fmt.pr "wrote %s@." trace_path;
    let viol_path =
      Filename.concat out_dir (Fmt.str "scenario_%d%s_violations.csv" n suffix)
    in
    Scenarios.Export.write_file viol_path (Scenarios.Export.violations_csv o);
    Fmt.pr "wrote %s@." viol_path
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Export one scenario's trace and violations as CSV.")
    Term.(const run $ scenario $ out_dir $ repaired $ signals $ stride)

let campaign_cmd =
  let run out_dir (seed, campaign) metrics =
    ensure_dir out_dir;
    let c = campaign () in
    let path = Filename.concat out_dir (Fmt.str "campaign_seed%d.csv" seed) in
    Obs.span "campaign.export" (fun () ->
        Scenarios.Export.write_file path (Scenarios.Export.campaign_csv c));
    Fmt.pr "%a@." Scenarios.Campaign.pp_robustness c.Scenarios.Campaign.robustness;
    Fmt.pr "wrote %s@." path;
    Campaign_cli.write_metrics ~name:(Fmt.str "export_campaign_seed%d" seed) metrics
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Export a fault-injection detection-coverage matrix as CSV, \
          optionally journaled, resumable, retried and chaos-tested.")
    Term.(const run $ out_dir $ Campaign_cli.term $ Campaign_cli.metrics)

let () =
  (* Must precede everything else: when this process is a shard worker
     (re-executed by a sharded campaign), it serves its frames and exits
     here instead of running the CLI. *)
  Exec.Shard.init ();
  let doc = "Export traces, figures and violation tables as CSV." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "export" ~doc)
          [ figures_cmd; scenario_cmd; campaign_cmd ]))
