(** [serve_client] — submit campaigns to a running [serve] daemon.

    {v
    serve_client submit --socket campaignd.sock --seed 42 -o out.csv
    serve_client submit --inject 'stuck=3:ca_accel_req' --scenarios 1,3
    serve_client stats --socket campaignd.sock -o snapshot.json
    serve_client drain --socket campaignd.sock
    v}

    Exit status is the contract: 0 only when the server delivered the
    result (or acknowledged the drain); any server-side failure —
    rejection, deadline kill, crash, drain checkpoint — exits 1, after
    the client's own reconnect/backpressure patience is spent. *)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "campaignd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"The daemon's Unix-domain socket.")

let fail fmt = Fmt.kpf (fun _ -> exit 1) Fmt.stderr (fmt ^^ "@.")

let submit_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let faults =
    Arg.(
      value
      & opt_all string []
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            (Inject.Spec.conv_doc
            ^ " Repeatable; default: the server's smoke-grid faults. \
               Validated locally before submission."))
  in
  let scenarios =
    Arg.(
      value
      & opt (list int) [ 1; 3; 7 ]
      & info [ "scenarios" ] ~docv:"N,.."
          ~doc:"Scenario numbers forming the grid columns.")
  in
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"SECS"
          ~doc:"Classification window (server default when omitted).")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Re-run a failing cell up to $(docv) extra times on the server.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Request deadline (queue wait + run); the server cancels the \
             request past it.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:"Write the campaign CSV here (default: stdout).")
  in
  let attempts =
    Arg.(
      value & opt int 10
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Reconnect-and-resubmit budget for transport failures (a \
             restarting or chaos-faulted server).")
  in
  let patience =
    Arg.(
      value & opt float 600.
      & info [ "patience" ] ~docv:"SECS"
          ~doc:
            "Total wall-clock budget, backpressure sleeps included.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress on stderr.")
  in
  let run socket seed faults scenarios window retries deadline out attempts
      patience quiet =
    List.iter
      (fun s ->
        match Inject.Spec.parse s with
        | Ok _ -> ()
        | Error e -> fail "--inject %S: %s" s e)
      faults;
    let spec =
      { Serve.Wire.seed; faults; scenarios; window; retries }
    in
    let progress ~completed ~total =
      if not quiet then Fmt.epr "progress: %d/%d cells@." completed total
    in
    match
      Serve.Client.submit_and_wait ~attempts ~patience_s:patience ?deadline_s:deadline
        ~progress ~socket spec
    with
    | Error reason -> fail "submit failed: %s" reason
    | Ok { Serve.Client.ticket; csv; durable } ->
        if not quiet then
          Fmt.epr "ticket %d: %d bytes%s@." ticket (String.length csv)
            (if durable then "" else " (server degraded: not crash-safe)");
        (match out with
        | None -> print_string csv
        | Some path ->
            Scenarios.Export.write_file path csv;
            if not quiet then Fmt.epr "wrote %s@." path)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign, stream progress, print or save the CSV; exit \
          non-zero on any server-side failure.")
    Term.(
      const run $ socket_arg $ seed $ faults $ scenarios $ window $ retries
      $ deadline $ out $ attempts $ patience $ quiet)

let stats_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:"Write the obs/1 snapshot here (default: stdout).")
  in
  let run socket out =
    match Serve.Client.stats ~socket with
    | Error reason -> fail "stats failed: %s" reason
    | Ok json -> (
        match out with
        | None -> print_endline json
        | Some path -> Scenarios.Export.write_file path (json ^ "\n"))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Fetch a live obs/1 telemetry snapshot.")
    Term.(const run $ socket_arg $ out)

let drain_cmd =
  let run socket =
    match Serve.Client.drain ~socket with
    | Error reason -> fail "drain failed: %s" reason
    | Ok (settled, checkpointed) ->
        Fmt.pr "draining: settled=%d checkpointed=%d@." settled checkpointed
  in
  Cmd.v
    (Cmd.info "drain" ~doc:"Ask the daemon to drain and exit.")
    Term.(const run $ socket_arg)

let () =
  let doc = "Client for the campaign service daemon." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "serve_client" ~doc)
          [ submit_cmd; stats_cmd; drain_cmd ]))
