(** [experiments] — regenerate the thesis's tables and figures.

    {v
    experiments list            # list experiment ids
    experiments all             # run every experiment
    experiments run table_d_1 fig_5_2 ...
    experiments campaign --seed 42 --domains 4
    experiments campaign --inject nan:object_range@2..8 --scenarios 1,3
    experiments campaign --journal c.jnl --retries 2   # crash-safe run
    experiments campaign --journal c.jnl --resume      # finish a killed run
    v}

    [campaign] takes the same command line as [export campaign]
    ({!Campaign_cli}) and reads and writes the same journal records, so
    either command resumes the other's journal. *)

open Cmdliner

let run_one (e : Core.Experiments.t) =
  Fmt.pr "==================================================================@.";
  Fmt.pr "%s — %s@." e.Core.Experiments.id e.Core.Experiments.title;
  Fmt.pr "==================================================================@.";
  e.Core.Experiments.run Fmt.stdout;
  Fmt.pr "@.@."

let list_cmd =
  let doc = "List experiment ids." in
  Cmd.v (Cmd.info "list" ~doc)
    (Term.(
       const (fun () ->
           List.iter
             (fun (e : Core.Experiments.t) ->
               Fmt.pr "%-14s %s@." e.Core.Experiments.id e.Core.Experiments.title)
             Core.Experiments.all)
       $ const ()))

let domains_arg =
  Campaign_cli.domains
    ~doc:
      "Pre-warm the scenario outcome cache on $(docv) domains before \
       rendering (default: the recommended domain count; 1 forces the \
       sequential path)."

let all_cmd =
  let doc = "Run every experiment (regenerates every table and figure)." in
  let run domains metrics =
    Core.Experiments.prewarm ?domains ();
    List.iter run_one Core.Experiments.all;
    Campaign_cli.write_metrics ~name:"experiments_all" metrics
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ domains_arg $ Campaign_cli.metrics)

let run_cmd =
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let doc = "Run the named experiments." in
  let run domains ids metrics =
    (match domains with
    | Some d -> Core.Experiments.prewarm ~domains:d ()
    | None -> ());
    List.iter
      (fun id ->
        match Core.Experiments.get id with
        | Some e -> run_one e
        | None ->
            Fmt.epr "unknown experiment %s (try 'experiments list')@." id;
            exit 1)
      ids;
    Campaign_cli.write_metrics ~name:"experiments_run" metrics
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ domains_arg $ ids $ Campaign_cli.metrics)

let campaign_cmd =
  let doc =
    "Run a fault-injection campaign: a fault × scenario grid against the \
     repaired baseline, reporting the detection-coverage matrix."
  in
  let run (seed, campaign) metrics =
    Fmt.pr "%a@." Scenarios.Campaign.pp (campaign ());
    Campaign_cli.write_metrics ~name:(Fmt.str "campaign_seed%d" seed) metrics
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(const run $ Campaign_cli.term $ Campaign_cli.metrics)

let () =
  (* Must precede everything else: when this process is a shard worker
     (re-executed by a sharded campaign), it serves its frames and exits
     here instead of running the CLI. *)
  Exec.Shard.init ();
  let doc = "Regenerate the tables and figures of the thesis evaluation." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "experiments" ~doc)
          [ list_cmd; all_cmd; run_cmd; campaign_cmd ]))
