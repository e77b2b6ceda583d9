(** [metrics_check] — validate obs/1 telemetry snapshots and compare runs.

    {v
    metrics_check BENCH_smoke.json                 # schema validation only
    metrics_check m.json --expect-counter pool.tasks_completed=12
    metrics_check m.json --expect-gauge 'serve.queue_depth<=0'
    metrics_check m.json --summary                 # deterministic digest
    metrics_check BENCH_smoke.json \
      --compare bench/baselines/BENCH_smoke.baseline.json --tolerance 25 \
      --expect-faster 'fleet_sharded<fleet_sequential'
    metrics_check BENCH_smoke.json \
      --write-baseline bench/baselines/BENCH_smoke.baseline.json \
      --baseline-counter pool.tasks_completed ...
    v}

    The [--summary] output deliberately excludes gauges, timings and
    spans: it prints only the run-shape facts (counters, histogram
    counts) that must be identical between a sequential and a parallel
    execution of the same workload, so two summaries can be [diff]ed
    directly in CI.

    [--compare] is the perf-regression gate: every counter pinned in the
    baseline must match the fresh snapshot {e exactly} (counters encode
    run shape — frames sent, cells requeued, tasks completed — which
    timing noise must never change), while every bench timing in the
    baseline bounds the fresh value to at most [1 + tolerance/100] times
    the baseline (faster is always fine). [--expect-faster 'A<B'] gates a
    relation {e within} the fresh snapshot — e.g. that the sharded fleet
    actually beats the sequential one on this machine.

    Baselines are written with [--write-baseline]: the fresh snapshot's
    bench timings plus exactly the counters named by repeated
    [--baseline-counter] flags (counters driven by sampler iteration
    counts are not deterministic and must not be pinned). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every relation flag is [NAME op VALUE], split by one function: the
   operators are tried in order and the first one that occurs in the
   argument splits it at its first occurrence, so a two-character
   operator must come before the one-character operator it contains
   (">=" before "=", whose split of "NAME>=V" would leave "NAME>" as the
   name). *)
let op_string ops tag = fst (List.find (fun (_, t) -> t = tag) ops)

let relation ~expected ops value pp_value =
  let split s (op, tag) =
    let n = String.length op in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = op then
        Some (String.sub s 0 i, tag, String.sub s (i + n) (String.length s - i - n))
      else find (i + 1)
    in
    find 0
  in
  let parse s =
    match List.find_map (split s) ops with
    | Some (name, tag, v) when name <> "" -> (
        match value v with
        | Some v -> Ok (name, tag, v)
        | None -> Error (`Msg expected))
    | _ -> Error (`Msg expected)
  in
  let print ppf (name, tag, v) =
    Fmt.pf ppf "%s%s%a" name (op_string ops tag) pp_value v
  in
  Arg.conv (parse, print)

(* [NAME=VALUE] pins a counter exactly; [NAME>=VALUE] sets a floor — the
   form chaos assertions use, where "the hang was detected" means "at
   least once", never an exact count. *)
let expect_conv =
  relation ~expected:"expected NAME=VALUE or NAME>=VALUE with an integer VALUE"
    [ (">=", `Ge); ("=", `Eq) ]
    int_of_string_opt Fmt.int

(* Gauge assertions compare floats and add the upper-bound form: a
   drained server must show [serve.queue_depth<=0] — "nothing left" is a
   ceiling, not a floor. *)
let gauge_ops = [ ("<=", `Le); (">=", `Ge); ("=", `Eq) ]

let gauge_expect_conv =
  relation
    ~expected:
      "expected NAME=VALUE, NAME<=VALUE or NAME>=VALUE with a numeric VALUE"
    gauge_ops float_of_string_opt
    (fun ppf -> Fmt.pf ppf "%g")

let faster_conv =
  relation ~expected:"expected FAST<SLOW (bench entry names)"
    [ ("<", `Lt) ]
    (function "" -> None | slow -> Some slow)
    Fmt.string

let member_value section json name =
  match Obs.Json.member section json with
  | Some obj -> Option.bind (Obs.Json.member name obj) Obs.Json.to_float
  | None -> None

let counter_value = member_value "counters"
let gauge_value = member_value "gauges"

(* A snapshot's [bench] is a list of [{name; time_ns}] records; a
   baseline's is a plain [{name: ns}] object. Accept both. *)
let bench_value json name =
  match Obs.Json.member "bench" json with
  | Some (Obs.Json.List entries) ->
      List.find_map
        (fun e ->
          match Option.bind (Obs.Json.member "name" e) Obs.Json.to_str with
          | Some n when n = name ->
              Option.bind (Obs.Json.member "time_ns" e) Obs.Json.to_float
          | _ -> None)
        entries
  | Some obj -> Option.bind (Obs.Json.member name obj) Obs.Json.to_float
  | None -> None

let bench_names json =
  match Obs.Json.member "bench" json with
  | Some (Obs.Json.List entries) ->
      List.filter_map
        (fun e -> Option.bind (Obs.Json.member "name" e) Obs.Json.to_str)
        entries
  | Some obj -> Obs.Json.keys obj
  | None -> []

(* Sorted [counter NAME V] then [histogram NAME count=N] lines: the
   cross-mode-stable projection of a snapshot. *)
let print_summary json =
  let entries kind =
    match Obs.Json.member kind json with
    | Some obj -> List.sort compare (Obs.Json.keys obj)
    | None -> []
  in
  List.iter
    (fun name ->
      match counter_value json name with
      | Some v -> Fmt.pr "counter %s %.0f@." name v
      | None -> ())
    (entries "counters");
  List.iter
    (fun name ->
      match Obs.Json.member "histograms" json with
      | None -> ()
      | Some hs -> (
          match
            Option.bind (Obs.Json.member name hs) (fun h ->
                Option.bind (Obs.Json.member "count" h) Obs.Json.to_float)
          with
          | Some c -> Fmt.pr "histogram %s count=%.0f@." name c
          | None -> ()))
    (entries "histograms")

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                  *)

let section_names section json =
  match Obs.Json.member section json with
  | Some obj -> List.sort compare (Obs.Json.keys obj)
  | None -> []

(* Counters pinned in the baseline must match exactly; bench timings may
   not exceed baseline * (1 + tolerance/100). Entries present only in
   the fresh snapshot are ignored — the baseline names the contract. *)
let compare_against ~tolerance path json baseline_path =
  match Obs.Json.of_string (read_file baseline_path) with
  | Error e ->
      Fmt.epr "%s: unreadable baseline — %s@." baseline_path e;
      false
  | Ok base ->
      let counters_ok =
        List.for_all
          (fun name ->
            match (counter_value base name, counter_value json name) with
            | Some want, Some got when got = want -> true
            | Some want, Some got ->
                Fmt.epr "%s: counter %s = %.0f, baseline pins %.0f@." path
                  name got want;
                false
            | Some _, None ->
                Fmt.epr "%s: counter %s missing (pinned in baseline)@." path
                  name;
                false
            | None, _ -> true)
          (section_names "counters" base)
      in
      let bench_ok =
        List.for_all
          (fun name ->
            match (bench_value base name, bench_value json name) with
            | Some want, Some got ->
                let limit = want *. (1. +. (tolerance /. 100.)) in
                if got <= limit then true
                else begin
                  Fmt.epr
                    "%s: bench %s = %.0f ns, regressed past baseline %.0f ns \
                     + %.0f%% (limit %.0f ns)@."
                    path name got want tolerance limit;
                  false
                end
            | Some _, None ->
                Fmt.epr "%s: bench entry %s missing (present in baseline)@."
                  path name;
                false
            | None, _ -> true)
          (List.sort compare (bench_names base))
      in
      if counters_ok && bench_ok then begin
        Fmt.pr "%s: within %g%% of %s@." path tolerance baseline_path;
        true
      end
      else false

let check_faster path json (fast, `Lt, slow) =
  match (bench_value json fast, bench_value json slow) with
  | Some f, Some s when f < s -> true
  | Some f, Some s ->
      Fmt.epr "%s: expected bench %s (%.0f ns) < %s (%.0f ns)@." path fast f
        slow s;
      false
  | None, _ ->
      Fmt.epr "%s: bench entry %s missing@." path fast;
      false
  | _, None ->
      Fmt.epr "%s: bench entry %s missing@." path slow;
      false

(* A baseline is a pruned snapshot: the bench timings, plus only the
   explicitly named counters. Written as plain JSON (schema
   "obs/1-baseline"), deterministic key order. *)
let write_baseline path json counters_to_pin provenance out =
  let pick read names =
    Obs.Json.Obj
      (List.filter_map
         (fun name ->
           Option.map (fun v -> (name, Obs.Json.Num v)) (read json name))
         names)
  in
  let baseline =
    Obs.Json.Obj
      ([ ("schema", Obs.Json.Str "obs/1-baseline") ]
      @ (match provenance with
        | None -> []
        | Some p -> [ ("provenance", Obs.Json.Str p) ])
      @ [
          ("source", Obs.Json.Str (Filename.basename path));
          ("counters", pick counter_value (List.sort compare counters_to_pin));
          ("bench", pick bench_value (List.sort compare (bench_names json)));
        ])
  in
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Obs.Json.to_string baseline);
      output_char oc '\n');
  Fmt.pr "wrote baseline %s@." out

let check path expects gauge_expects summary compare tolerance fasters
    baseline_out baseline_counters provenance =
  let raw = read_file path in
  match Obs.Export.validate_string raw with
  | Error e ->
      Fmt.epr "%s: INVALID — %s@." path e;
      false
  | Ok () ->
      let json =
        match Obs.Json.of_string raw with Ok j -> j | Error _ -> assert false
      in
      let expects_ok =
        List.for_all
          (fun (name, op, want) ->
            match counter_value json name with
            | Some got
              when match op with
                   | `Eq -> Float.to_int got = want
                   | `Ge -> Float.to_int got >= want ->
                true
            | Some got ->
                Fmt.epr "%s: counter %s = %.0f, expected %s%d@." path name got
                  (match op with `Eq -> "" | `Ge -> ">= ")
                  want;
                false
            | None ->
                Fmt.epr "%s: counter %s missing@." path name;
                false)
          expects
      in
      let gauges_ok =
        List.for_all
          (fun (name, op, want) ->
            match gauge_value json name with
            | Some got
              when match op with
                   | `Eq -> got = want
                   | `Le -> got <= want
                   | `Ge -> got >= want ->
                true
            | Some got ->
                Fmt.epr "%s: gauge %s = %g, expected %s %g@." path name got
                  (op_string gauge_ops op) want;
                false
            | None ->
                Fmt.epr "%s: gauge %s missing@." path name;
                false)
          gauge_expects
      in
      let compare_ok =
        match compare with
        | None -> true
        | Some baseline -> compare_against ~tolerance path json baseline
      in
      let faster_ok = List.for_all (check_faster path json) fasters in
      let ok = expects_ok && gauges_ok && compare_ok && faster_ok in
      if ok then begin
        Option.iter
          (write_baseline path json baseline_counters provenance)
          baseline_out;
        if summary then print_summary json
        else if compare = None && fasters = [] then
          Fmt.pr "%s: valid obs/1 snapshot@." path
      end;
      ok

let run paths expects gauge_expects summary compare tolerance fasters
    baseline_out baseline_counters provenance =
  let ok =
    List.fold_left
      (fun acc path ->
        let this =
          try
            check path expects gauge_expects summary compare tolerance fasters
              baseline_out baseline_counters provenance
          with Sys_error e ->
            Fmt.epr "%s@." e;
            false
        in
        acc && this)
      true paths
  in
  if ok then 0 else 1

let () =
  let paths =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SNAPSHOT.json")
  in
  let expects =
    Arg.(
      value
      & opt_all expect_conv []
      & info [ "expect-counter" ] ~docv:"NAME=VALUE"
          ~doc:
            "Fail unless counter $(i,NAME) has exactly $(i,VALUE) \
             ($(i,NAME)=$(i,VALUE)) or at least $(i,VALUE) \
             ($(i,NAME)>=$(i,VALUE)). Repeatable.")
  in
  let gauge_expects =
    Arg.(
      value
      & opt_all gauge_expect_conv []
      & info [ "expect-gauge" ] ~docv:"NAME<=VALUE"
          ~doc:
            "Fail unless gauge $(i,NAME) is exactly ($(i,NAME)=$(i,VALUE)), \
             at most ($(i,NAME)<=$(i,VALUE)) or at least \
             ($(i,NAME)>=$(i,VALUE)) the numeric $(i,VALUE) — e.g. \
             $(b,'serve.queue_depth<=0') asserts a drained server left no \
             queued work behind. Repeatable.")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "After validating, print a deterministic digest (sorted \
             counters and histogram counts, no timings) suitable for \
             diffing a sequential run against a parallel one.")
  in
  let compare =
    Arg.(
      value
      & opt (some file) None
      & info [ "compare" ] ~docv:"BASELINE.json"
          ~doc:
            "Compare the snapshot against a committed baseline: counters \
             pinned there must match exactly, bench timings may regress \
             at most $(b,--tolerance) percent (being faster always \
             passes).")
  in
  let tolerance =
    Arg.(
      value & opt float 25.
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "Allowed bench-timing regression for $(b,--compare), in \
             percent (default 25).")
  in
  let fasters =
    Arg.(
      value
      & opt_all faster_conv []
      & info [ "expect-faster" ] ~docv:"FAST<SLOW"
          ~doc:
            "Fail unless bench entry $(i,FAST) is strictly faster than \
             bench entry $(i,SLOW) in this snapshot. Repeatable.")
  in
  let baseline_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"PATH"
          ~doc:
            "After the checks pass, write a pruned baseline (all bench \
             timings, plus the $(b,--baseline-counter) counters) to \
             $(i,PATH) for committing.")
  in
  let baseline_counters =
    Arg.(
      value
      & opt_all string []
      & info [ "baseline-counter" ] ~docv:"NAME"
          ~doc:
            "Pin counter $(i,NAME) in the baseline written by \
             $(b,--write-baseline). Only pin counters that are \
             deterministic for the workload. Repeatable.")
  in
  let provenance =
    Arg.(
      value
      & opt (some string) None
      & info [ "provenance" ] ~docv:"NOTE"
          ~doc:
            "Record where the $(b,--write-baseline) numbers came from \
             (machine, date, commit) in the baseline's $(i,provenance) \
             field, so a reader can judge whether the tolerance band is \
             anchored to comparable hardware.")
  in
  let doc = "Validate obs/1 telemetry snapshots and gate perf regressions." in
  exit
    (Cmd.eval'
       (Cmd.v (Cmd.info "metrics_check" ~doc)
          Term.(
            const run $ paths $ expects $ gauge_expects $ summary $ compare
            $ tolerance $ fasters $ baseline_out $ baseline_counters
            $ provenance)))
