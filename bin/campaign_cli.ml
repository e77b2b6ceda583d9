(** The campaign command line of [experiments campaign] and
    [export campaign]: every campaign flag, the grid the flags select and
    the run they configure, defined once, plus the [--metrics],
    [--domains] and [--shards] flags the other subcommands of both tools
    share with it. *)

open Cmdliner

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Write an obs/1 JSON telemetry snapshot (pool/cache/journal \
           counters, latency histograms, phase spans) to $(docv) before \
           exiting.")

let write_metrics ~name metrics =
  Option.iter
    (fun path ->
      Obs.Export.write_file ~name path;
      Fmt.pr "wrote metrics snapshot %s@." path)
    metrics

let domains ~doc =
  Arg.(value & opt (some int) None & info [ "domains"; "j" ] ~docv:"N" ~doc)

let shards =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard execution across $(docv) worker processes \
           (crash-isolated: a worker SIGKILL is absorbed by respawn and \
           requeue), each running $(b,--domains) domains. Output is \
           byte-identical to the single-process run.")

let seed =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Campaign seed; same seed, bit-for-bit identical matrix and CSV.")

let faults =
  let spec =
    Arg.conv
      ( (fun s ->
          match Inject.Spec.parse s with
          | Ok f -> Ok f
          | Error e -> Error (`Msg e)),
        Inject.Fault.pp )
  in
  Arg.(
    value
    & opt_all spec []
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          (Inject.Spec.conv_doc
          ^ " Repeatable; default: the smoke grid's three sensor faults."))

(* A scenario by its number; an unknown number is a usage error. *)
let scenario =
  let all = Scenarios.Defs.all in
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        match List.find_opt (fun d -> d.Scenarios.Defs.number = n) all with
        | Some d -> Ok d
        | None ->
            Error
              (`Msg (Fmt.str "unknown scenario %d (expected 1-%d)" n (List.length all))))
  in
  Arg.conv (parse, fun ppf d -> Fmt.int ppf d.Scenarios.Defs.number)

let scenarios =
  Arg.(
    value
    & opt (list scenario) (List.map Scenarios.Defs.get [ 1; 3; 7 ])
    & info [ "scenarios" ] ~docv:"N,.."
        ~doc:"Scenario numbers forming the grid columns.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"PATH"
        ~doc:
          "Fsync-append every completed cell to this crash-safe journal; \
           with $(b,--resume), replay it first and execute only the missing \
           cells — the result is byte-identical to an uninterrupted run. \
           Without $(b,--resume) an existing journal is truncated.")

let resume =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the $(b,--journal) before running: completed cells are \
           restored bit-for-bit instead of re-simulated, so a campaign \
           killed mid-run finishes from where it stopped.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a failing cell up to $(docv) extra times (exponential \
           backoff with jitter, seeded by $(b,--seed)); a cell still \
           failing afterwards is quarantined and reported, instead of \
           aborting the campaign. Default 0: first failure aborts.")

let chaos =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          ("Inject a deterministic infrastructure-fault plan into the \
            campaign's own execution stack (workers, frames, journal, \
            spawns), seeded by $(b,--seed). Every fault is recoverable: \
            the matrix and CSV are bit-for-bit identical to the \
            chaos-free run. " ^ Exec.Chaos.conv_doc))

let hang_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "hang-timeout" ] ~docv:"SECS"
        ~doc:
          "Declare a sharded worker hung — SIGKILL it and requeue its \
           cells — after $(docv) seconds without results or heartbeats \
           (default 30).")

let batch_deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "batch-deadline" ] ~docv:"SECS"
        ~doc:
          "Hard bound on one sharded batch's in-flight time: a worker \
           exceeding it is killed and its cells requeued, even if it is \
           still heartbeating (catches busy-looping tasks). Off by \
           default.")

(* The campaign a command line selects, as its seed and a thunk that
   runs it: Cmdliner evaluates this term before the command's own setup
   (such as creating an output directory), which must come first. *)
let term =
  let domains = domains ~doc:"Run the grid on $(docv) domains (1 = sequential)." in
  let campaign domains shards seed faults scenarios journal resume retries chaos
      hang_timeout_s deadline_s =
    if resume && journal = None then begin
      Fmt.epr "--resume requires --journal PATH@.";
      exit 1
    end;
    let run () =
      let smoke = Scenarios.Campaign.smoke ~seed () in
      let grid =
        {
          Scenarios.Campaign.seed;
          faults = (if faults = [] then smoke.Scenarios.Campaign.faults else faults);
          grid_scenarios = scenarios;
        }
      in
      let retry =
        if retries > 0 then
          Some (Exec.Supervise.policy ~max_attempts:(retries + 1) ~seed ())
        else None
      in
      let chaos =
        Option.map
          (fun spec ->
            match Exec.Chaos.parse ~seed spec with
            | Ok plan -> plan
            | Error e ->
                Fmt.epr "--chaos: %s@." e;
                exit 1)
          chaos
      in
      Scenarios.Campaign.run ?domains ?shards ?journal ~resume ?retry ?chaos
        ?hang_timeout_s ?deadline_s grid
    in
    (seed, run)
  in
  Term.(
    const campaign $ domains $ shards $ seed $ faults $ scenarios $ journal $ resume
    $ retries $ chaos $ hang_timeout $ batch_deadline)
