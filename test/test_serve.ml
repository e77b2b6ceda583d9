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

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

type daemon = { pid : int; socket : string; state : string }

(* Every daemon this runner spawned, with its state dir. One that a
   failed test left running is killed when the runner exits, so that it
   cannot keep the runner's output open, and its state dir removed. *)
let spawned = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun (pid, state) ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              rm_rf state
          | _ -> ()
          | exception Unix.Unix_error _ -> ())
        !spawned)

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
  spawned := (pid, state) :: !spawned;
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

(* Drain the daemon, reap it and remove its state dir: it is stopped for
   good. A drain that fails must not hang the suite: the daemon gets a
   SIGTERM and 10 s to exit, then a SIGKILL, and the test fails with the
   drain's error. *)
let stop_daemon (d : daemon) =
  let drained = Serve.Client.drain ~socket:d.socket in
  let status =
    match drained with
    | Ok _ -> snd (Unix.waitpid [] d.pid)
    | Error _ ->
        Unix.kill d.pid Sys.sigterm;
        let deadline = Obs.Clock.now () +. 10. in
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] d.pid with
          | 0, _ when Obs.Clock.now () < deadline ->
              Unix.sleepf 0.05;
              reap ()
          | 0, _ ->
              Unix.kill d.pid Sys.sigkill;
              snd (Unix.waitpid [] d.pid)
          | _, status -> status
        in
        reap ()
  in
  rm_rf d.state;
  match (drained, status) with
  | Error e, _ -> Alcotest.failf "drain failed: %s" e
  | Ok _, Unix.WEXITED 0 -> ()
  | Ok _, status ->
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
   enough cells that tests can interrupt it mid-flight: its 20 cells take
   about 0.75 s on 2 cores, and the daemon sends progress, results and
   deadline kills as each cell settles, so a test acts about one cell
   into the grid. *)
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
    scenarios = List.init 10 (fun i -> i + 1);
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

(* Poll a daemon counter until [ok] holds, for at most 10 s. *)
let await_counter d name ok =
  let deadline = Obs.Clock.now () +. 10. in
  let rec poll () =
    let n = stats_counter d name in
    if not (ok n) then begin
      if Obs.Clock.now () > deadline then Alcotest.failf "%s stuck at %d" name n;
      Unix.sleepf 0.002;
      poll ()
    end
  in
  poll ()

(* The files a state dir keeps for unsettled or checkpointed requests:
   cell journals and pending files. *)
let cell_journals d =
  Array.to_list (Sys.readdir d.state)
  |> List.filter (String.starts_with ~prefix:"cells-")
  |> List.sort compare

let pending_dir d = Filename.concat d.state "pending"
let pending_files d = List.sort compare (Array.to_list (Sys.readdir (pending_dir d)))

let check_retired d =
  Alcotest.(check (list string)) "no cell journal left" [] (cell_journals d);
  Alcotest.(check (list string)) "no pending file left" [] (pending_files d)

(* A counter of this process: the client's own telemetry. *)
let client_counter name = Obs.Metrics.value (Obs.Metrics.counter name)

let store_hit ~socket spec =
  match Serve.Client.submit_and_wait ~socket spec with
  | Ok { Serve.Client.ticket = 0; _ } -> ()
  | Ok _ -> Alcotest.fail "expected a store hit"
  | Error e -> Alcotest.failf "submit: %s" e

(* A daemon on a domain of this process, drained when [f] returns. *)
let with_inprocess_daemon f =
  let dir = fresh_dir () in
  let cfg =
    Serve.Server.default_config ~socket:(Filename.concat dir "d.sock") ~state_dir:dir
  in
  let socket = cfg.Serve.Server.socket in
  let daemon = Domain.spawn (fun () -> Serve.Server.run cfg) in
  let rec wait_ready n =
    match Serve.Client.stats ~socket with
    | Ok _ -> ()
    | Error e ->
        if n = 0 then Alcotest.failf "in-process daemon never came up: %s" e;
        Unix.sleepf 0.01;
        wait_ready (n - 1)
  in
  wait_ready 1000;
  Fun.protect
    ~finally:(fun () ->
      ignore (Serve.Client.drain ~socket);
      Domain.join daemon;
      rm_rf dir)
    (fun () -> f socket)

(* A stand-in daemon on a domain of this process, for answers the real
   one never gives. It serves one connection at a time until the client
   closes it, answering each request on the [n]th connection (from 1)
   with the frames [reply n rq], all in one write. [f] gets the socket
   and the count of accepted connections. *)
let with_fake_daemon reply f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "fake.sock" in
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 8;
  let accepted = Atomic.make 0 in
  let stop = Atomic.make false in
  let ready fd =
    match Unix.select [ fd ] [] [] 0.05 with [], _, _ -> false | _ -> true
  in
  let rec serve n fd buf =
    if Atomic.get stop then ()
    else if not (ready fd) then serve n fd buf
    else if Serve.Wire.Frame.fill fd buf > 0 then begin
      let rec answer () =
        match Serve.Wire.Frame.decode buf with
        | `Frame (rq : Serve.Wire.request) ->
            Serve.Wire.Frame.write_all fd
              (String.concat "" (List.map Serve.Wire.Frame.encode (reply n rq)));
            answer ()
        | `Need_more | `Corrupt -> ()
      in
      answer ();
      serve n fd buf
    end
  in
  let listener =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          if ready lfd then begin
            let fd, _ = Unix.accept ~cloexec:true lfd in
            let n = Atomic.fetch_and_add accepted 1 + 1 in
            (try serve n fd (Serve.Wire.Frame.create ()) with Unix.Unix_error _ -> ());
            Unix.close fd
          end
        done;
        Unix.close lfd)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join listener;
      rm_rf dir)
    (fun () -> f socket accepted)

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
  (* Shut down, not closed: the [finally] above closes the descriptor,
     and a second close could hit the number a kept client session has
     been given since. *)
  Unix.shutdown s1.fd Unix.SHUTDOWN_ALL;
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
  (match recv s with
  | Serve.Wire.Rejected { reason = Serve.Wire.Bad_spec _; _ } -> ()
  | _ -> Alcotest.fail "unparsable fault must be Bad_spec");
  (* A client of an older protocol generation is refused at Hello. *)
  let old =
    { fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0; buf = Serve.Wire.Frame.create () }
  in
  Fun.protect ~finally:(fun () -> disconnect old) @@ fun () ->
  Unix.connect old.fd (Unix.ADDR_UNIX d.socket);
  Serve.Wire.Frame.write old.fd
    (Serve.Wire.Hello { proto = Serve.Wire.proto_version - 1; client = "old" });
  match recv old with
  | Serve.Wire.Rejected { reason = Serve.Wire.Bad_spec _; retryable = false; _ } -> ()
  | _ -> Alcotest.fail "an older protocol generation must be refused"

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)

let test_deadline_kills_without_stalling_others () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* A slowloris-ish client: submits a long campaign with a short
     deadline and then never reads another frame. The campaign adds a
     third fault to [slow_spec], 30 cells in all; the kill lands at the
     first cell to settle after the deadline, well before the last. *)
  let s = connect d in
  expect_welcome s;
  submit s ~deadline_s:0.5
    {
      slow_spec with
      Serve.Wire.faults = slow_spec.Serve.Wire.faults @ [ "noise=0.25:object_closing_speed" ];
    };
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
    (stats_counter d "serve.deadline_kills" >= 1);
  (* Both requests settled before their waiters heard of it: neither
     keeps a file. *)
  check_retired d

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
  (* Restart on the same state dir: the pending file still holds the
     request, the cell journal the settled cells. Resubmitting
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
  rm_rf d.state;
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
    (stats_counter d "serve.orphaned" >= 1);
  (* The orphan settles, as a failure, at its next cell boundary. *)
  await_counter d "serve.requests_failed" (fun n -> n >= 1);
  check_retired d

(* SIGKILL with two campaigns mid-flight: restart recovers BOTH from
   their pending files, resumes each from its cell journal, and the
   resubmitted results stay byte-identical. *)
let test_sigkill_restart_resumes_both () =
  let d = start_daemon ~args:[ "concurrent=2" ] () in
  let s1 = connect d in
  expect_welcome s1;
  submit s1 slow_spec;
  expect_accept s1;
  let s2 = connect d in
  expect_welcome s2;
  let other = { slow_spec with Serve.Wire.seed = 45; scenarios = [ 1; 2; 3; 4; 5 ] } in
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
   digest must fall back to re-execution and still serve the same
   bytes. *)
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

(* A completed request retires its pending file and cell journal: the
   state dir keeps neither however many distinct requests complete. *)
let test_completed_requests_leave_no_cell_journal () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let specs = List.map (fun seed -> { quick_spec with Serve.Wire.seed }) [ 51; 52; 53 ] in
  List.iter
    (fun spec ->
      match Serve.Client.submit_and_wait ~socket:d.socket spec with
      | Ok { Serve.Client.csv; durable; _ } ->
          Alcotest.(check string) "daemon CSV = batch CSV" (batch_csv spec) csv;
          Alcotest.(check bool) "durable" true durable
      | Error e -> Alcotest.failf "submit: %s" e)
    specs;
  check_retired d;
  let stored =
    List.filter
      (fun f -> Filename.check_suffix f ".csv")
      (Array.to_list (Sys.readdir (Filename.concat d.state "results")))
  in
  Alcotest.(check int) "one stored result per request" 3 (List.length stored)

(* A campaign that quarantined a cell is not a result. The store key
   leaves [retries] out, so a stored thinned CSV would answer every later
   submission of the spec, one without retries included. Under a plan
   that tears every shard frame no cell ever settles: both submissions
   fail, nothing is stored, and the second is no store hit. *)
let test_quarantined_matrix_not_stored () =
  let d = start_daemon ~args:[ "shards=1"; "chaos=torn~1" ] () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let retried = { quick_spec with Serve.Wire.retries = 1 } in
  (match Serve.Client.submit_and_wait ~socket:d.socket retried with
  | Ok _ -> Alcotest.fail "a campaign with a quarantined cell must fail"
  | Error reason ->
      Alcotest.(check string) "the reason" "1 cell(s) quarantined" reason);
  Alcotest.(check (list string)) "nothing stored" []
    (Array.to_list (Sys.readdir (Filename.concat d.state "results")));
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok _ -> Alcotest.fail "a campaign without retries whose cell failed must fail"
  | Error _ -> ());
  Alcotest.(check int) "no store hit" 0 (stats_counter d "serve.store_hits");
  check_retired d

(* ------------------------------------------------------------------ *)
(* Pending files                                                        *)

(* Each admitted request publishes a pending file and retires it, with
   its cell journal, when it settles: 160 completed requests leave
   neither. A drain checkpoint keeps both files of the request it
   interrupts; a restart recovers exactly that request, which retires
   them once it completes. *)
let test_pending_files_bounded () =
  let d = start_daemon () in
  let spec i =
    { quick_spec with Serve.Wire.window = Some (0.005 +. (0.00001 *. float_of_int i)) }
  in
  let n = 160 in
  let clients = 4 in
  List.iter Domain.join
    (List.init clients (fun c ->
         Domain.spawn (fun () ->
             for i = 0 to (n / clients) - 1 do
               let spec = spec ((i * clients) + c) in
               match Serve.Client.submit_and_wait ~socket:d.socket spec with
               | Ok _ -> ()
               | Error e -> failwith e
             done)));
  Alcotest.(check int) "every request completed" n
    (stats_counter d "serve.requests_completed");
  check_retired d;
  let s = connect d in
  Fun.protect
    ~finally:(fun () -> disconnect s)
    (fun () ->
      expect_welcome s;
      submit s slow_spec;
      wait_progress s;
      Unix.kill d.pid Sys.sigterm;
      let rec settlement () =
        match recv s with
        | Serve.Wire.Failed _ -> ()
        | Serve.Wire.Progress _ -> settlement ()
        | _ -> Alcotest.fail "expected the drain checkpoint"
      in
      settlement ();
      match Unix.waitpid [] d.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "drained daemon must exit 0");
  (match pending_files d with
  | [ digest ] ->
      (match
         Scenarios.Journal.fold
           (Filename.concat (pending_dir d) digest)
           ~init:[]
           ~f:(fun acc key (spec : Serve.Wire.spec) -> (key, spec) :: acc)
       with
      | [ (key, spec) ], _ ->
          Alcotest.(check string) "keyed by its name" digest key;
          Alcotest.(check bool) "the checkpointed spec" true (spec = slow_spec)
      | _ -> Alcotest.fail "expected one record in the pending file");
      Alcotest.(check (list string)) "its cell journal kept"
        [ "cells-" ^ digest ^ ".jnl" ]
        (cell_journals d)
  | files ->
      Alcotest.failf "expected one pending file after the drain, found %d"
        (List.length files));
  let drained = pending_files d in
  let d = restart_daemon d in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (* The recovered request has most of its grid left to run. *)
  Alcotest.(check (list string)) "recovery keeps the pending file" drained
    (pending_files d);
  Alcotest.(check int) "exactly the checkpointed request recovered" 1
    (stats_counter d "serve.recovered");
  (match Serve.Client.submit_and_wait ~socket:d.socket slow_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "resubmit after restart: %s" e);
  check_retired d

(* A kill takes effect at the next cell boundary, and a submission of the
   same spec inside that window is admitted as a new request under the
   same digest. The killed request must leave the new one's files alone
   when it settles, so that a crash still recovers the new one. *)
let test_same_digest_resubmission_recovered () =
  let d = start_daemon () in
  let s1 = connect d in
  expect_welcome s1;
  submit s1 slow_spec;
  wait_progress s1;
  disconnect s1;
  await_counter d "serve.orphaned" (fun n -> n >= 1);
  let s2 = connect d in
  expect_welcome s2;
  submit s2 slow_spec;
  wait_progress s2;
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  disconnect s2;
  let d = restart_daemon d in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  Alcotest.(check int) "the resubmitted request recovered" 1
    (stats_counter d "serve.recovered")

(* ------------------------------------------------------------------ *)
(* Store hits and the major heap                                        *)

(* Store hits on an idle in-process daemon, each on a fresh raw session
   (connect, hello, submit, result, close), then each through the
   client's kept session. Their buffers are small and die young, so
   2,000 of them barely touch the major heap: a 64 KB buffer per
   connection or per read (8 Ki words each) would. [Gc.minor] empties
   every domain's minor heap and samples its counters, so
   [Gc.quick_stat] then counts the daemon's domain as well as this
   one. *)
let test_store_hit_major_words () =
  with_inprocess_daemon @@ fun socket ->
  let fresh_session () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX socket);
        let s = { fd; buf = Serve.Wire.Frame.create () } in
        Serve.Wire.Frame.write fd
          (Serve.Wire.Hello { proto = Serve.Wire.proto_version; client = "test" });
        expect_welcome s;
        submit s quick_spec;
        match recv s with
        | Serve.Wire.Result { ticket = 0; _ } -> ()
        | _ -> Alcotest.fail "expected a store hit")
  in
  let kept_session () = store_hit ~socket quick_spec in
  (match Serve.Client.submit_and_wait ~socket quick_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" e);
  let check_words label hit =
    hit ();
    hit ();
    let sessions = 2000 in
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    for _ = 1 to sessions do
      hit ()
    done;
    Gc.minor ();
    let per_hit =
      ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int sessions
    in
    Alcotest.(check bool)
      (Printf.sprintf "%.1f major words per hit, %s (< 256)" per_hit label)
      true (per_hit < 256.)
  in
  check_words "fresh session" fresh_session;
  check_words "kept session" kept_session

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
(* Kept client sessions                                                 *)

(* A domain keeps one greeted session per daemon: 100 sequential store
   hits open one connection, not 100. *)
let test_one_session_per_domain () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" e);
  let connections = stats_counter d "serve.connections" in
  let opened = client_counter "serve.client.sessions_opened" in
  let reused = client_counter "serve.client.sessions_reused" in
  Domain.join
    (Domain.spawn (fun () ->
         for _ = 1 to 100 do
           store_hit ~socket:d.socket quick_spec
         done));
  Alcotest.(check int) "one session opened" 1
    (client_counter "serve.client.sessions_opened" - opened);
  Alcotest.(check int) "then reused 99 times" 99
    (client_counter "serve.client.sessions_reused" - reused);
  Alcotest.(check int) "one connection for 100 store hits" 1
    (stats_counter d "serve.connections" - connections)

(* A daemon refusing the greeting for good (another protocol generation,
   as [Serve.Server] refuses one) ends the call with its reason: one
   connection, no retry loop. *)
let test_refused_greeting () =
  with_fake_daemon (fun _ -> function
    | Serve.Wire.Hello { proto; _ } ->
        [
          Serve.Wire.Rejected
            {
              reason =
                Serve.Wire.Bad_spec
                  (Printf.sprintf "protocol %d; this server speaks %d" proto (proto + 1));
              retryable = false;
              retry_after_s = 1.;
            };
        ]
    | _ -> [])
  @@ fun socket accepted ->
  let t0 = Obs.Clock.now () in
  (match Serve.Client.submit_and_wait ~socket quick_spec with
  | Ok _ -> Alcotest.fail "a refused greeting must end the call"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "reason %S names the protocol" e)
        true
        (Str.string_match (Str.regexp ".*protocol") e 0));
  let dt = Obs.Clock.now () -. t0 in
  Alcotest.(check int) "one connection" 1 (Atomic.get accepted);
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s (< 0.5 s)" dt)
    true (dt < 0.5)

(* A session whose buffer still holds bytes after its answer is out of
   step with its daemon: it is closed, not kept. The stand-in daemon
   sends a second, stale result behind the first. *)
let test_unread_bytes_not_kept () =
  let result csv = Serve.Wire.Result { ticket = 1; csv; durable = true } in
  with_fake_daemon (fun n -> function
    | Serve.Wire.Hello _ ->
        [ Serve.Wire.Welcome { proto = Serve.Wire.proto_version; server = "fake" } ]
    | Serve.Wire.Submit _ ->
        if n = 1 then [ result "first"; result "stale" ] else [ result "second" ]
    | _ -> [])
  @@ fun socket accepted ->
  let submit () =
    match Serve.Client.submit_and_wait ~socket quick_spec with
    | Ok { Serve.Client.csv; _ } -> csv
    | Error e -> Alcotest.failf "submit: %s" e
  in
  Alcotest.(check string) "first answer" "first" (submit ());
  Alcotest.(check string) "second answer, on a new session" "second" (submit ());
  Alcotest.(check int) "two connections" 2 (Atomic.get accepted)

(* A session kept from before a SIGKILL is dead: the first call after the
   restart replaces it at once, without the 0.5-s pause of a charged
   retry. *)
let test_restart_replaces_kept_session () =
  let d = start_daemon () in
  (match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" e);
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  let d = restart_daemon d in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let reconnects = client_counter "serve.client.reconnects" in
  let t0 = Obs.Clock.now () in
  store_hit ~socket:d.socket quick_spec;
  let dt = Obs.Clock.now () -. t0 in
  Alcotest.(check int) "one reconnect" 1
    (client_counter "serve.client.reconnects" - reconnects);
  Alcotest.(check bool)
    (Printf.sprintf "answered in %.3f s (< 0.25 s)" dt)
    true (dt < 0.25)

(* A domain's kept sessions close when it exits: the daemon sees the
   disconnect and its client count goes back down. *)
let test_domain_exit_closes_sessions () =
  let d = start_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let active () = stats_counter d "serve.active_clients" in
  let before = active () in
  let during =
    Domain.join
      (Domain.spawn (fun () ->
           match Serve.Client.submit_and_wait ~socket:d.socket quick_spec with
           | Ok _ -> active ()
           | Error e -> failwith e))
  in
  Alcotest.(check int) "the domain's session is held while it runs" (before + 1) during;
  let rec settle n =
    let now = active () in
    if now = before || n = 0 then now
    else begin
      Unix.sleepf 0.01;
      settle (n - 1)
    end
  in
  Alcotest.(check int) "and closed when it exits" before (settle 200)

(* An idle daemon answers each request as its campaign finishes, not at
   the next timeout of its loop. One spec under ten windows: after the
   first request, each only classifies. *)
let test_idle_daemon_answers_at_once () =
  with_inprocess_daemon @@ fun socket ->
  let t0 = Obs.Clock.now () in
  for i = 0 to 9 do
    let spec =
      { quick_spec with Serve.Wire.window = Some (0.007 +. (0.00001 *. float_of_int i)) }
    in
    match Serve.Client.submit_and_wait ~socket spec with
    | Ok { Serve.Client.ticket; _ } when ticket > 0 -> ()
    | Ok _ -> Alcotest.fail "expected a campaign, not a store hit"
    | Error e -> Alcotest.failf "submit: %s" e
  done;
  let dt = Obs.Clock.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "10 one-cell requests in %.3f s (< 1 s)" dt)
    true (dt < 1.)

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
          Alcotest.test_case "one kept session serves a domain's calls" `Slow
            test_one_session_per_domain;
          Alcotest.test_case "a refused greeting ends the call" `Quick
            test_refused_greeting;
          Alcotest.test_case "a session with unread bytes is not kept" `Quick
            test_unread_bytes_not_kept;
          Alcotest.test_case "a domain's sessions close when it exits" `Slow
            test_domain_exit_closes_sessions;
          Alcotest.test_case "an idle daemon answers at once" `Slow
            test_idle_daemon_answers_at_once;
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
          Alcotest.test_case "a restart costs a kept session one free reconnect"
            `Slow test_restart_replaces_kept_session;
          Alcotest.test_case "a same-digest resubmission is recovered" `Slow
            test_same_digest_resubmission_recovered;
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
          Alcotest.test_case "completed requests leave no cell journal" `Slow
            test_completed_requests_leave_no_cell_journal;
          Alcotest.test_case "a store hit allocates little in the major heap"
            `Slow test_store_hit_major_words;
          Alcotest.test_case "a quarantined matrix is never stored" `Slow
            test_quarantined_matrix_not_stored;
        ] );
      ( "journal",
        [
          Alcotest.test_case "pending files bounded; checkpoint recovered" `Slow
            test_pending_files_bounded;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "server fault points absorbed" `Slow
            test_chaos_server_faults_absorbed;
        ] );
    ]
