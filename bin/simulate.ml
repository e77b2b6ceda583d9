(** [simulate] — run one evaluation scenario and print its violation table,
    optionally with every defect repaired.

    {v
    simulate 1                 # scenario 1 as the thesis evaluated it
    simulate 6 --repaired      # the counterfactual: defects fixed
    simulate 3 --signal host_speed --signal ca_accel_req
    simulate 1 --repaired --inject nan:object_range@2..8 --seed 7
    v} *)

open Cmdliner

let spec_conv =
  Arg.conv
    ( (fun s ->
        match Inject.Spec.parse s with
        | Ok f -> Ok f
        | Error e -> Error (`Msg e)),
      Inject.Fault.pp )

let run n repaired seed faults signals metrics =
  let defects =
    if repaired then Vehicle.Defects.repaired else Vehicle.Defects.as_evaluated
  in
  let inject = Inject.Plan.make ~seed faults in
  if not (Inject.Plan.is_empty inject) then
    Fmt.pr "injecting: %a@." Inject.Plan.pp inject;
  let o = Scenarios.Runner.run ~defects ~inject (Scenarios.Defs.get n) in
  Fmt.pr "%s@.%s@.@." o.Scenarios.Runner.scenario.Scenarios.Defs.title
    o.Scenarios.Runner.scenario.Scenarios.Defs.description;
  Fmt.pr "%a@." Scenarios.Results.pp_table o;
  List.iter
    (fun sig_name ->
      Fmt.pr "@.%s (downsampled):@." sig_name;
      let s =
        Scenarios.Figures.extract ~max_points:40 o.Scenarios.Runner.trace
          (0., o.Scenarios.Runner.end_time)
          sig_name sig_name
      in
      List.iter (fun (t, v) -> Fmt.pr "  %8.3f  %10.4f@." t v) s.Scenarios.Figures.points)
    signals;
  Option.iter
    (fun path ->
      Obs.Export.write_file ~name:(Fmt.str "simulate_%d" n) path;
      Fmt.pr "wrote metrics snapshot %s@." path)
    metrics

let () =
  let n = Arg.(required & pos 0 (some int) None & info [] ~docv:"SCENARIO") in
  let repaired =
    Arg.(value & flag & info [ "repaired" ] ~doc:"Run with every seeded defect fixed.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Injection-plan seed; same seed, same faulted run.")
  in
  let faults =
    Arg.(
      value
      & opt_all spec_conv []
      & info [ "inject" ] ~docv:"SPEC" ~doc:Inject.Spec.conv_doc)
  in
  let signals =
    Arg.(value & opt_all string [] & info [ "signal"; "s" ] ~doc:"Also print this signal.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write an obs/1 JSON telemetry snapshot (counters, latency \
             histograms, spans) to $(docv) before exiting.")
  in
  let doc = "Run a semi-autonomous vehicle evaluation scenario." in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "simulate" ~doc)
          Term.(
            const run $ n $ repaired $ seed $ faults $ signals $ metrics)))
