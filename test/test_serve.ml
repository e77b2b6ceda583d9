(** The campaign service daemon, end to end: SRV1 framing, admission
    control and backpressure, per-client quotas, request deadlines,
    durable SIGKILL+restart resume, graceful SIGTERM drain, and the
    chaos server fault points. The daemon under test is a re-execution
    of this very binary (OCaml 5 forbids fork after the first domain
    spawns), steered by the [TEST_SERVE_DAEMON] environment variable. *)

(* Workers are re-executions of this binary: the intercept must run
   before anything else, or a shard "worker" would start running the
   test suite instead. *)
let () = Exec.Shard.init ()

(* ------------------------------------------------------------------ *)
(* Daemon-mode intercept                                                *)

(* When [TEST_SERVE_DAEMON] is set, this process IS the daemon: parse
   the [k=v;...] config, serve until drained, exit 0. Must precede
   Alcotest. *)
let () =
  match Sys.getenv_opt "TEST_SERVE_DAEMON" with
  | None -> ()
  | Some conf ->
      let kv =
        List.filter_map
          (fun part ->
            match String.index_opt part '=' with
            | Some i ->
                Some
                  ( String.sub part 0 i,
                    String.sub part (i + 1) (String.length part - i - 1) )
            | None -> None)
          (String.split_on_char ';' conf)
      in
      let get k = List.assoc_opt k kv in
      let socket = Option.get (get "socket") in
      let state_dir = Option.get (get "state") in
      let cfg = Serve.Server.default_config ~socket ~state_dir in
      let cfg =
        {
          cfg with
          Serve.Server.queue_bound =
            (match get "queue" with Some v -> int_of_string v | None -> 8);
          quota = (match get "quota" with Some v -> int_of_string v | None -> 4);
          concurrent =
            (match get "concurrent" with Some v -> int_of_string v | None -> 1);
          store_budget_bytes =
            (match get "store_budget" with
            | Some v -> int_of_string v
            | None -> cfg.Serve.Server.store_budget_bytes);
          shards = Option.map int_of_string (get "shards");
          default_deadline_s = Option.map float_of_string (get "deadline");
          stall_timeout_s =
            (match get "stall" with Some v -> float_of_string v | None -> 10.);
          retry_after_s = 0.1;
          chaos =
            (match get "chaos" with
            | None -> None
            | Some spec -> (
                match Exec.Chaos.parse ~seed:42 spec with
                | Ok plan -> Some plan
                | Error e -> failwith e));
          metrics_path = get "metrics";
        }
      in
      Serve.Server.run cfg;
      exit 0

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "serve_test_%d_%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o755;
    d

type daemon = { pid : int; socket : string; state : string }

(* Spawn a daemon (a re-execution of this binary) and block until its
   socket accepts. *)
let spawn ~socket ~state args =
  let conf =
    String.concat ";" ([ "socket=" ^ socket; "state=" ^ state ] @ args)
  in
  let env =
    Array.append (Unix.environment ()) [| "TEST_SERVE_DAEMON=" ^ conf |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env Unix.stdin Unix.stderr Unix.stderr
  in
  let deadline = Obs.Clock.now () +. 10. in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        if Obs.Clock.now () > deadline then
          Alcotest.fail "daemon did not come up within 10s";
        Unix.sleepf 0.05;
        wait ()
  in
  wait ();
  { pid; socket; state }

let start_daemon ?(args = []) () =
  let state = fresh_dir () in
  spawn ~socket:(Filename.concat state "d.sock") ~state args

(* Restart on the same socket and state dir — the SIGKILL-recovery
   path. *)
let restart_daemon ?(args = []) (d : daemon) =
  spawn ~socket:d.socket ~state:d.state args

let stop_daemon (d : daemon) =
  (match Serve.Client.drain ~socket:d.socket with
  | Ok _ -> ()
  | Error _ -> ());
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, status ->
      let s =
        match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
      in
      Alcotest.failf "daemon did not drain cleanly: %s" s

(* A raw protocol session, for tests that need to see individual frames
   (rejections, progress, failure reasons) rather than the client
   library's absorbed view. *)
type session = { fd : Unix.file_descr; buf : Serve.Wire.Frame.buf }

let connect (d : daemon) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.socket);
  let s = { fd; buf = Serve.Wire.Frame.create () } in
  Serve.Wire.Frame.write fd
    (Serve.Wire.Hello { proto = Serve.Wire.proto_version; client = "test" });
  s

let recv s =
  match Serve.Wire.Frame.read s.fd s.buf with
  | `Frame (v : Serve.Wire.response) -> v
  | `Corrupt -> Alcotest.fail "corrupt frame from server"
  | `Eof -> Alcotest.fail "server closed the connection"

let expect_welcome s =
  match recv s with
  | Serve.Wire.Welcome _ -> ()
  | _ -> Alcotest.fail "expected Welcome"

let disconnect s = try Unix.close s.fd with Unix.Unix_error _ -> ()

let submit s ?deadline_s spec =
  Serve.Wire.Frame.write s.fd (Serve.Wire.Submit { spec; deadline_s })

(* Grid specs. [quick] is one scenario (two simulations); [slow] spans
   enough cells that tests can interrupt it mid-flight. *)
let quick_spec =
  {
    Serve.Wire.seed = 42;
    faults = [ "stuck=3:ca_accel_req" ];
    scenarios = [ 1 ];
    window = None;
    retries = 0;
  }

let slow_spec =
  {
    Serve.Wire.seed = 43;
    faults = [ "stuck=3:ca_accel_req"; "delay=150:accel_cmd" ];
    scenarios = [ 1; 2; 3; 4; 5 ];
    window = None;
    retries = 0;
  }

(* The CSV the batch path produces for a wire spec — the byte-identity
   oracle, computed in-process. *)
let batch_csv (spec : Serve.Wire.spec) =
  let g =
    {
      Scenarios.Campaign.seed = spec.Serve.Wire.seed;
      faults = List.map Inject.Spec.parse_exn spec.Serve.Wire.faults;
      grid_scenarios = List.map Scenarios.Defs.get spec.Serve.Wire.scenarios;
    }
  in
  Scenarios.Export.campaign_csv
    (Scenarios.Campaign.run ?window:spec.Serve.Wire.window g)

let counter_in json name =
  (* Pull ["name":N] out of an obs/1 snapshot without a JSON parser
     dependency in this suite. *)
  let needle = Printf.sprintf "%S:" name in
  match Str.search_forward (Str.regexp_string needle) json 0 with
  | exception Not_found -> Alcotest.failf "counter %s missing from stats" name
  | i ->
      let start = i + String.length needle in
      let stop = ref start in
      while
        !stop < String.length json
        && (match json.[!stop] with '0' .. '9' -> true | _ -> false)
      do
        incr stop
      done;
      int_of_string (String.sub json start (!stop - start))

let stats_counter d name =
  match Serve.Client.stats ~socket:d.socket with
  | Ok json -> counter_in json name
  | Error e -> Alcotest.failf "stats: %s" e

(* ------------------------------------------------------------------ *)
(* Wire codec                                                           *)

let feed_string buf s =
  Serve.Wire.Frame.feed buf (Bytes.of_string s) (String.length s)

let test_wire_roundtrip () =
  let buf = Serve.Wire.Frame.create () in
  let rq =
    Serve.Wire.Submit { spec = quick_spec; deadline_s = Some 5. }
  in
  feed_string buf (Serve.Wire.Frame.encode rq);
  (match Serve.Wire.Frame.decode buf with
  | `Frame (Serve.Wire.Submit { spec; deadline_s = Some d }) ->
      Alcotest.(check bool) "spec survives" true (spec = quick_spec);
      Alcotest.(check (float 0.)) "deadline survives" 5. d
  | _ -> Alcotest.fail "expected the submit frame back");
  match Serve.Wire.Frame.decode buf with
  | `Need_more -> ()
  | _ -> Alcotest.fail "buffer must be empty after decode"

let test_wire_torn_and_corrupt () =
  let frame = Serve.Wire.Frame.encode Serve.Wire.Stats in
  (* Torn: any strict prefix is `Need_more, never `Corrupt or a bogus
     frame. *)
  for cut = 0 to String.length frame - 1 do
    let buf = Serve.Wire.Frame.create () in
    feed_string buf (String.sub frame 0 cut);
    match Serve.Wire.Frame.decode buf with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.failf "prefix of %d bytes decoded" cut
    | `Corrupt -> Alcotest.failf "prefix of %d bytes declared corrupt" cut
  done;
  (* A flipped payload bit must be caught by the CRC. *)
  let flipped = Bytes.of_string frame in
  let last = Bytes.length flipped - 1 in
  Bytes.set flipped last (Char.chr (Char.code (Bytes.get flipped last) lxor 1));
  let buf = Serve.Wire.Frame.create () in
  feed_string buf (Bytes.to_string flipped);
  match Serve.Wire.Frame.decode buf with
  | `Corrupt -> ()
  | `Frame _ -> Alcotest.fail "bit flip decoded as a frame"
  | `Need_more -> Alcotest.fail "bit flip hidden as Need_more"

let test_wire_closure_free () =
  match Serve.Wire.Frame.encode (fun x -> x + 1) with
  | (_ : string) -> Alcotest.fail "closures must not serialize"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Round trip, dedup, store                                             *)

let test_roundtrip_and_store () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let expected = batch_csv quick_spec in
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; durable; _ } ->
      Alcotest.(check string) "daemon CSV = batch CSV" expected csv;
      Alcotest.(check bool) "durable" true durable
  | Error e -> Alcotest.failf "submit: %s" e);
  (* Second submission of the same spec is a store hit: instant, same
     bytes, ticket 0. *)
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; ticket; _ } ->
      Alcotest.(check string) "store hit returns the same bytes" expected csv;
      Alcotest.(check int) "store hits are ticketless" 0 ticket
  | Error e -> Alcotest.failf "store-hit submit: %s" e);
  Alcotest.(check int) "one store hit counted" 1
    (stats_counter d "serve.store_hits")

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)

let test_backpressure_queue_full () =
  let d = start_daemon ~args:[ "queue=1" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s1 = connect d in
  Fun.protect ~finally:(fun () -> disconnect s1) @@ fun () ->
  expect_welcome s1;
  submit s1 slow_spec;
  (match recv s1 with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "first submission must be admitted");
  (* The queue bound counts queued + running; a second distinct spec
     must bounce with the retry-after hint, not buffer. *)
  let s2 = connect d in
  Fun.protect ~finally:(fun () -> disconnect s2) @@ fun () ->
  expect_welcome s2;
  submit s2 quick_spec;
  (match recv s2 with
  | Serve.Wire.Rejected
      { reason = Serve.Wire.Queue_full; retryable; retry_after_s } ->
      Alcotest.(check bool) "retry-after hint present" true (retry_after_s > 0.);
      Alcotest.(check bool) "queue-full is typed retryable" true retryable
  | r ->
      Alcotest.failf "expected Queue_full, got %s"
        (match r with
        | Serve.Wire.Accepted _ -> "Accepted"
        | Serve.Wire.Result _ -> "Result"
        | _ -> "another frame"));
  (* The in-quota, in-bound submission still completes: cancel the
     hog, then the quick spec has the queue to itself. *)
  (match recv s1 with
  | Serve.Wire.Accepted _ | Serve.Wire.Progress _ | Serve.Wire.Result _ -> ()
  | Serve.Wire.Failed { reason; _ } -> Alcotest.failf "hog failed: %s" reason
  | _ -> ());
  disconnect s1;
  (* s1's disconnect orphans — cancels — the slow campaign. *)
  match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "queued-out client completes after the burst"
        (batch_csv quick_spec) csv;
      Alcotest.(check bool) "rejection counted" true
        (stats_counter d "serve.rejections_queue_full" >= 1)
  | Error e -> Alcotest.failf "post-burst submit: %s" e

let test_quota () =
  let d = start_daemon ~args:[ "quota=1"; "queue=8" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s = connect d in
  Fun.protect ~finally:(fun () -> disconnect s) @@ fun () ->
  expect_welcome s;
  submit s slow_spec;
  (match recv s with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "first submission must be admitted");
  submit s quick_spec;
  let rec wait_reject () =
    match recv s with
    | Serve.Wire.Rejected { reason = Serve.Wire.Over_quota; _ } -> ()
    | Serve.Wire.Progress _ -> wait_reject ()
    | Serve.Wire.Accepted _ -> Alcotest.fail "quota must bound one client"
    | _ -> Alcotest.fail "expected Over_quota"
  in
  wait_reject ();
  Alcotest.(check bool) "quota rejection counted" true
    (stats_counter d "serve.rejections_quota" >= 1)

let test_bad_spec () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s = connect d in
  Fun.protect ~finally:(fun () -> disconnect s) @@ fun () ->
  expect_welcome s;
  submit s { quick_spec with Serve.Wire.scenarios = [ 999 ] };
  (match recv s with
  | Serve.Wire.Rejected { reason = Serve.Wire.Bad_spec e; _ } ->
      Alcotest.(check bool) "names the scenario" true
        (Str.string_match (Str.regexp ".*999") e 0)
  | _ -> Alcotest.fail "unknown scenario must be Bad_spec");
  submit s { quick_spec with Serve.Wire.faults = [ "bogus!" ] };
  match recv s with
  | Serve.Wire.Rejected { reason = Serve.Wire.Bad_spec _; _ } -> ()
  | _ -> Alcotest.fail "unparsable fault must be Bad_spec"

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)

let test_deadline_kills_without_stalling_others () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* A slowloris-ish client: submits a long campaign with a short
     deadline and then never reads another frame. *)
  let s = connect d in
  expect_welcome s;
  submit s ~deadline_s:0.5 slow_spec;
  (match recv s with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "slow submission must be admitted");
  (* A healthy client behind it must still complete promptly — the
     deadline reclaims the cells instead of letting the stalled request
     pin the executor for the full grid. *)
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "healthy client unaffected" (batch_csv quick_spec)
        csv
  | Error e -> Alcotest.failf "healthy submit: %s" e);
  let rec wait_kill () =
    match recv s with
    | Serve.Wire.Failed { reason; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "reason %S mentions the deadline" reason)
          true
          (Str.string_match (Str.regexp ".*deadline") reason 0)
    | Serve.Wire.Progress _ | Serve.Wire.Accepted _ -> wait_kill ()
    | _ -> Alcotest.fail "expected the deadline Failed"
  in
  wait_kill ();
  disconnect s;
  Alcotest.(check bool) "deadline kill counted" true
    (stats_counter d "serve.deadline_kills" >= 1)

(* ------------------------------------------------------------------ *)
(* Durability                                                           *)

let test_sigkill_restart_resume_identical () =
  let d = start_daemon () in
  let s = connect d in
  expect_welcome s;
  submit s { slow_spec with Serve.Wire.seed = 42 };
  (match recv s with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "submission must be admitted");
  (* Wait for real progress so the kill lands mid-campaign, with some
     cells journaled and some not. *)
  let rec wait_progress () =
    match recv s with
    | Serve.Wire.Progress { completed; _ } when completed >= 2 -> ()
    | Serve.Wire.Progress _ | Serve.Wire.Accepted _ -> wait_progress ()
    | Serve.Wire.Result _ -> Alcotest.fail "campaign finished too fast to kill"
    | _ -> Alcotest.fail "unexpected frame while waiting for progress"
  in
  wait_progress ();
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  disconnect s;
  (* Restart on the same state dir: the admission journal still holds
     the [Pending], the cell journal the settled cells. Resubmitting
     the same spec attaches to the recovered request (or hits the
     store) and the bytes must equal an uninterrupted batch run. *)
  let d = restart_daemon d in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (match
     Serve.Client.submit_and_wait ~socket:d.socket
       { slow_spec with Serve.Wire.seed = 42 }
   with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "resumed CSV byte-identical"
        (batch_csv { slow_spec with Serve.Wire.seed = 42 })
        csv
  | Error e -> Alcotest.failf "resubmit after restart: %s" e);
  Alcotest.(check bool) "recovery counted" true
    (stats_counter d "serve.recovered" >= 1)

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                       *)

let test_sigterm_drain_under_load () =
  let d = start_daemon () in
  let s = connect d in
  Fun.protect ~finally:(fun () -> disconnect s) @@ fun () ->
  expect_welcome s;
  submit s slow_spec;
  (match recv s with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "submission must be admitted");
  Unix.kill d.pid Sys.sigterm;
  (* Every admitted request settles or checkpoints before exit: this
     one is mid-run, so its waiters hear a checkpoint Failed (unless it
     squeaked through to a Result — also a legal drain). *)
  let rec wait_settle () =
    match recv s with
    | Serve.Wire.Failed { reason; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "reason %S mentions the checkpoint" reason)
          true
          (Str.string_match (Str.regexp ".*checkpoint") reason 0)
    | Serve.Wire.Result _ -> ()
    | Serve.Wire.Progress _ -> wait_settle ()
    | _ -> Alcotest.fail "expected the drain settlement"
  in
  wait_settle ();
  (match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "drained daemon must exit 0");
  (* New admissions during/after drain: connection refused or Draining
     rejection — either way the socket is gone now. *)
  match Serve.Client.submit_and_wait ~attempts:1 ~patience_s:2.
          ~socket:d.socket quick_spec
  with
  | Ok _ -> Alcotest.fail "drained daemon must not serve"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Concurrent lanes                                                     *)

(* Distinct 1-cell and 3-cell specs for interleaving tests; distinct
   seeds/faults keep the digests (and so the executions) separate. *)
let quick2_spec =
  {
    Serve.Wire.seed = 46;
    faults = [ "delay=150:accel_cmd" ];
    scenarios = [ 3 ];
    window = None;
    retries = 0;
  }

let medium_spec =
  {
    Serve.Wire.seed = 44;
    faults = [ "stuck=3:ca_accel_req" ];
    scenarios = [ 1; 2; 3 ];
    window = None;
    retries = 0;
  }

let rec wait_progress ?(at_least = 1) s =
  match recv s with
  | Serve.Wire.Progress { completed; _ } when completed >= at_least -> ()
  | Serve.Wire.Progress _ | Serve.Wire.Accepted _ -> wait_progress ~at_least s
  | Serve.Wire.Result _ -> Alcotest.fail "campaign finished too fast"
  | _ -> Alcotest.fail "unexpected frame while waiting for progress"

let rec wait_result s =
  match recv s with
  | Serve.Wire.Result { csv; _ } -> csv
  | Serve.Wire.Progress _ | Serve.Wire.Accepted _ -> wait_result s
  | Serve.Wire.Failed { reason; _ } -> Alcotest.failf "campaign failed: %s" reason
  | _ -> Alcotest.fail "unexpected frame while waiting for the result"

let expect_accept s =
  match recv s with
  | Serve.Wire.Accepted _ -> ()
  | _ -> Alcotest.fail "submission must be admitted"

(* The acceptance criterion: with two lanes, a 1-cell probe submitted
   behind a long-running grid completes while the long grid is still
   mid-flight — no head-of-line blocking — and both CSVs stay
   byte-identical to their batch equivalents. *)
let test_small_jumps_large () =
  let d = start_daemon ~args:[ "concurrent=2" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s = connect d in
  Fun.protect ~finally:(fun () -> disconnect s) @@ fun () ->
  expect_welcome s;
  submit s slow_spec;
  expect_accept s;
  (* Ensure the long grid actually occupies its lane before the probe
     arrives. *)
  wait_progress s;
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "probe CSV byte-identical" (batch_csv quick_spec)
        csv
  | Error e -> Alcotest.failf "probe submit: %s" e);
  Alcotest.(check int) "probe completed while the long grid still runs" 1
    (stats_counter d "serve.requests_completed");
  Alcotest.(check string) "long CSV byte-identical" (batch_csv slow_spec)
    (wait_result s)

let test_interleaved_identical () =
  let d = start_daemon ~args:[ "concurrent=2" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s1 = connect d in
  Fun.protect ~finally:(fun () -> disconnect s1) @@ fun () ->
  let s2 = connect d in
  Fun.protect ~finally:(fun () -> disconnect s2) @@ fun () ->
  expect_welcome s1;
  expect_welcome s2;
  submit s1 quick_spec;
  submit s2 quick2_spec;
  expect_accept s1;
  expect_accept s2;
  Alcotest.(check string) "first interleaved CSV byte-identical"
    (batch_csv quick_spec) (wait_result s1);
  Alcotest.(check string) "second interleaved CSV byte-identical"
    (batch_csv quick2_spec) (wait_result s2)

(* Aborting one concurrent request (here: by orphaning — its only
   client disconnects) must leave the neighbour lane's fleet lease
   untouched: the survivor completes byte-identical. [shards=2] with
   two lanes exercises the per-lane fleet split (each lane's domain
   coordinates its own fleet of one worker process). *)
let test_abort_leaves_other () =
  let d = start_daemon ~args:[ "concurrent=2"; "shards=2" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let s1 = connect d in
  expect_welcome s1;
  submit s1 slow_spec;
  expect_accept s1;
  wait_progress s1;
  let s2 = connect d in
  Fun.protect ~finally:(fun () -> disconnect s2) @@ fun () ->
  expect_welcome s2;
  submit s2 medium_spec;
  expect_accept s2;
  (* Orphan-kill the long grid mid-run; the survivor's workers belong
     to the other lane's fleet and must not notice. *)
  disconnect s1;
  Alcotest.(check string) "survivor CSV byte-identical"
    (batch_csv medium_spec) (wait_result s2);
  Alcotest.(check bool) "orphaning counted" true
    (stats_counter d "serve.orphaned" >= 1)

(* SIGKILL with two campaigns mid-flight: restart recovers BOTH from
   the admission journal, resumes each from its cell journal, and the
   resubmitted results stay byte-identical. *)
let test_sigkill_restart_resumes_both () =
  let d = start_daemon ~args:[ "concurrent=2" ] () in
  let s1 = connect d in
  expect_welcome s1;
  submit s1 slow_spec;
  expect_accept s1;
  let s2 = connect d in
  expect_welcome s2;
  let other = { slow_spec with Serve.Wire.seed = 45; scenarios = [ 1; 2; 3 ] } in
  submit s2 other;
  expect_accept s2;
  wait_progress ~at_least:2 s1;
  wait_progress ~at_least:2 s2;
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  disconnect s1;
  disconnect s2;
  let d = restart_daemon ~args:[ "concurrent=2" ] d in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (match Serve.Client.submit_and_wait ~socket:d.socket slow_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "first resumed CSV byte-identical"
        (batch_csv slow_spec) csv
  | Error e -> Alcotest.failf "first resubmit after restart: %s" e);
  (match Serve.Client.submit_and_wait ~socket:d.socket other with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "second resumed CSV byte-identical"
        (batch_csv other) csv
  | Error e -> Alcotest.failf "second resubmit after restart: %s" e);
  Alcotest.(check bool) "both recoveries counted" true
    (stats_counter d "serve.recovered" >= 2)

(* ------------------------------------------------------------------ *)
(* Result-store GC                                                      *)

(* A one-byte budget evicts every stored result immediately; an evicted
   digest must fall back to re-execution (incremental, via its cell
   journal) and still serve the same bytes. *)
let test_store_eviction () =
  let d = start_daemon ~args:[ "store_budget=1" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let expected = batch_csv quick_spec in
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "first run byte-identical" expected csv
  | Error e -> Alcotest.failf "first submit: %s" e);
  Alcotest.(check bool) "eviction counted" true
    (stats_counter d "serve.store_evictions" >= 1);
  match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "evicted digest re-executes to the same bytes"
        expected csv
  | Error e -> Alcotest.failf "post-eviction submit: %s" e

(* ------------------------------------------------------------------ *)
(* Chaos server fault points                                            *)

let test_chaos_server_faults_absorbed () =
  (* Drop the first accept, the second read and the third write: the
     client library must reconnect/resubmit through all three and still
     produce byte-identical results. *)
  let d = start_daemon ~args:[ "chaos=accept@1,sread@2,swrite@3" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok { Serve.Client.csv; _ } ->
      Alcotest.(check string) "CSV byte-identical under server chaos"
        (batch_csv quick_spec) csv
  | Error e -> Alcotest.failf "submit under chaos: %s" e);
  Alcotest.(check bool) "chaos drops counted" true
    (stats_counter d "serve.chaos_drops" >= 1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "torn and corrupt frames" `Quick
            test_wire_torn_and_corrupt;
          Alcotest.test_case "closure-free payloads" `Quick
            test_wire_closure_free;
        ] );
      ( "service",
        [
          Alcotest.test_case "round trip, dedup, result store" `Slow
            test_roundtrip_and_store;
          Alcotest.test_case "bad specs rejected at admission" `Slow
            test_bad_spec;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue bound rejects with backpressure" `Slow
            test_backpressure_queue_full;
          Alcotest.test_case "per-client quota" `Slow test_quota;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "deadline kill does not stall others" `Slow
            test_deadline_kills_without_stalling_others;
        ] );
      ( "durability",
        [
          Alcotest.test_case "SIGKILL, restart, resume byte-identical" `Slow
            test_sigkill_restart_resume_identical;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drain under load exits 0" `Slow
            test_sigterm_drain_under_load;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "small grid jumps a long one" `Slow
            test_small_jumps_large;
          Alcotest.test_case "interleaved campaigns byte-identical" `Slow
            test_interleaved_identical;
          Alcotest.test_case "abort of one lane leaves the other's fleet"
            `Slow test_abort_leaves_other;
          Alcotest.test_case "SIGKILL, restart resumes both campaigns" `Slow
            test_sigkill_restart_resumes_both;
        ] );
      ( "store",
        [
          Alcotest.test_case "size budget evicts; evicted digests re-execute"
            `Slow test_store_eviction;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "server fault points absorbed" `Slow
            test_chaos_server_faults_absorbed;
        ] );
    ]
