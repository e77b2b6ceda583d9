(** [serve] — the campaign service daemon.

    {v
    serve --socket /tmp/campaignd.sock --state-dir /var/tmp/campaignd
    serve --queue 4 --quota 2 --deadline 120 --shards 2 -j 2
    serve --concurrent 2 --shards 4   # two lanes, two workers each
    serve --chaos accept@3,sread~0.05 --seed 42   # chaos-hardened run
    v}

    Runs until drained (SIGTERM, SIGINT or a client [drain] request) and
    exits 0 with every admitted request settled or checkpointed to its
    pending file. Restarting with the same $(b,--state-dir) resumes the
    checkpointed work. *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "campaignd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let state_dir_arg =
  Arg.(
    value
    & opt string "campaignd.state"
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Durability root: a pending file and a cell journal per \
           unsettled or checkpointed request, and the result store. \
           Reusing a previous run's directory resumes its unfinished work.")

let run socket state_dir queue quota concurrent store_budget deadline
    stall retry_after domains shards seed chaos metrics =
  let chaos =
    match chaos with
    | None -> None
    | Some spec -> (
        match Exec.Chaos.parse ~seed spec with
        | Ok plan -> Some plan
        | Error e ->
            Fmt.epr "--chaos: %s@." e;
            exit 1)
  in
  let cfg =
    {
      (Serve.Server.default_config ~socket ~state_dir) with
      Serve.Server.queue_bound = max 1 queue;
      quota = max 1 quota;
      concurrent = max 1 concurrent;
      store_budget_bytes = max 0 store_budget * 1024 * 1024;
      default_deadline_s = deadline;
      stall_timeout_s = stall;
      retry_after_s = retry_after;
      domains;
      shards;
      chaos;
      metrics_path = metrics;
    }
  in
  Fmt.pr "campaignd: listening on %s (state %s)@." socket state_dir;
  Serve.Server.run cfg;
  Fmt.pr "campaignd: drained@."

let cmd =
  let queue =
    Arg.(
      value & opt int 8
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: at most $(docv) requests queued or running; \
             past it submissions are rejected with a retry-after hint \
             (backpressure, never unbounded buffering).")
  in
  let quota =
    Arg.(
      value & opt int 4
      & info [ "quota" ] ~docv:"N"
          ~doc:"Per-client concurrent-request quota.")
  in
  let concurrent =
    Arg.(
      value & opt int 1
      & info [ "concurrent" ] ~docv:"K"
          ~doc:
            "Run up to $(docv) admitted campaigns at once, each on a 1/$(docv) \
             share of the worker fleet (fleet-share scheduling). A free lane \
             picks the smallest queued grid first, so short requests are \
             never head-of-line blocked behind a long one. Results stay \
             byte-identical to the batch CLI for any $(docv).")
  in
  let store_budget =
    Arg.(
      value & opt int 64
      & info [ "store-budget" ] ~docv:"MB"
          ~doc:
            "Result-store size budget in MiB; past it the oldest stored \
             results are evicted first (0 = unbounded). An evicted digest \
             simply re-executes — incrementally, via its cell journal — on \
             the next submission.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Default request deadline (queue wait + run); requests past it \
             are cancelled and their cells reclaimed. Off by default; a \
             submission's own deadline takes precedence.")
  in
  let stall =
    Arg.(
      value & opt float 10.
      & info [ "stall-timeout" ] ~docv:"SECS"
          ~doc:
            "Drop a client whose replies have made no progress for $(docv) \
             seconds (the slowloris bound).")
  in
  let retry_after =
    Arg.(
      value & opt float 1.
      & info [ "retry-after" ] ~docv:"SECS"
          ~doc:"Resubmission hint carried in rejections.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:"Run each campaign on $(docv) domains (1 = sequential).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard each campaign across $(docv) crash-isolated worker \
             processes.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the $(b,--chaos) plan.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            ("Deterministic infrastructure-fault plan, applied to the \
              server's own accept/read/write paths ($(b,accept), \
              $(b,sread), $(b,swrite)) and threaded into every campaign's \
              execution stack. " ^ Exec.Chaos.conv_doc))
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write a final obs/1 telemetry snapshot (serve.* counters and \
             gauges included) to $(docv) after the drain.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived campaign evaluation daemon with admission control, \
          backpressure, deadlines, durability and graceful drain.")
    Term.(
      const run $ socket_arg $ state_dir_arg $ queue $ quota
      $ concurrent $ store_budget $ deadline $ stall $ retry_after $ domains
      $ shards $ seed $ chaos $ metrics)

let () =
  (* Must precede everything else: when this process is a shard worker
     (re-executed by a sharded campaign), it serves its frames and exits
     here instead of starting the daemon. *)
  Exec.Shard.init ();
  exit (Cmd.eval cmd)
