(** Multi-process sharded execution: frame codec integrity, submission
    order, crash recovery (SIGKILL, torn and corrupt frames), and the
    sharded-equals-single-process determinism contract on the pinned
    seed-42 smoke campaign. *)

(* Workers are re-executions of this very binary: the intercept must run
   before anything else (in particular before Alcotest takes over), or a
   "worker" would start running the test suite instead. *)
let () = Exec.Shard.init ()

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

let get_done = function
  | Ok v -> v
  | Error (e : Exec.Pool.error) ->
      Alcotest.failf "unexpected failure: %s" (Printexc.to_string e.Exec.Pool.exn)

(* A two-worker shard runner for {!Exec.Supervise.try_map}. *)
let sharded ~on_result f xs = Exec.Shard.try_map ~shards:2 ~on_result f xs

(* ------------------------------------------------------------------ *)
(* Frame codec                                                          *)

let feed_string buf s =
  Exec.Shard.Frame.feed buf (Bytes.of_string s) (String.length s)

let test_frame_roundtrip () =
  let buf = Exec.Shard.Frame.create () in
  let frame = Exec.Shard.Frame.encode (42, "payload") in
  feed_string buf frame;
  (match Exec.Shard.Frame.decode buf with
  | `Frame v ->
      Alcotest.(check (pair int string)) "value survives" (42, "payload") v
  | `Need_more | `Corrupt -> Alcotest.fail "expected a complete frame");
  (match Exec.Shard.Frame.decode buf with
  | `Need_more -> ()
  | `Frame _ | `Corrupt -> Alcotest.fail "buffer must be empty after decode")

let test_frame_streaming () =
  (* Two frames fed byte-by-byte: every prefix is `Need_more, and both
     frames come out intact and in order. *)
  let buf = Exec.Shard.Frame.create () in
  let frames = Exec.Shard.Frame.encode "first" ^ Exec.Shard.Frame.encode "second" in
  let decoded = ref [] in
  String.iter
    (fun c ->
      feed_string buf (String.make 1 c);
      match Exec.Shard.Frame.decode buf with
      | `Frame v -> decoded := (v : string) :: !decoded
      | `Need_more -> ()
      | `Corrupt -> Alcotest.fail "no prefix of a valid stream is corrupt")
    frames;
  Alcotest.(check (list string)) "both frames decoded, in order"
    [ "first"; "second" ] (List.rev !decoded)

let test_frame_torn_tail () =
  (* A frame cut anywhere short of its full length never decodes — it
     stays `Need_more until more bytes arrive (or EOF declares it torn). *)
  let frame = Exec.Shard.Frame.encode [ 1.5; 2.5 ] in
  for cut = 0 to String.length frame - 1 do
    let buf = Exec.Shard.Frame.create () in
    feed_string buf (String.sub frame 0 cut);
    match Exec.Shard.Frame.decode buf with
    | `Need_more -> ()
    | `Frame _ -> Alcotest.failf "decoded from %d of %d bytes" cut (String.length frame)
    | `Corrupt -> Alcotest.failf "torn at %d must read as short, not corrupt" cut
  done

let test_frame_corruption () =
  let check_corrupt what s =
    let buf = Exec.Shard.Frame.create () in
    feed_string buf s;
    match Exec.Shard.Frame.decode buf with
    | `Corrupt -> ()
    | `Frame _ -> Alcotest.failf "%s accepted" what
    | `Need_more -> Alcotest.failf "%s read as short" what
  in
  let frame = Exec.Shard.Frame.encode "precious" in
  (* Payload bit-flip under an unchanged CRC field. *)
  let flipped = Bytes.of_string frame in
  Bytes.set flipped 12 (Char.chr (Char.code (Bytes.get flipped 12) lxor 1));
  check_corrupt "bit-flipped payload" (Bytes.to_string flipped);
  (* Wrong magic. *)
  let bad_magic = Bytes.of_string frame in
  Bytes.set bad_magic 0 'X';
  check_corrupt "bad magic" (Bytes.to_string bad_magic);
  (* Absurd length claim (bit-flip in the length field). *)
  let bad_len = Bytes.of_string frame in
  Bytes.set_int32_le bad_len 4 0x7FFFFFFFl;
  check_corrupt "absurd length" (Bytes.to_string bad_len)

let test_frame_batch_roundtrip () =
  (* An assignment batch — (job, seq, per-cell marshalled payloads) —
     survives the codec with every member payload intact. *)
  let tasks = Array.init 5 (fun i -> (i, Marshal.to_string (i * i) [])) in
  let buf = Exec.Shard.Frame.create () in
  feed_string buf (Exec.Shard.Frame.encode (7, 2, tasks));
  match Exec.Shard.Frame.decode buf with
  | `Frame ((job : int), (seq : int), (tasks' : (int * string) array)) ->
      Alcotest.(check int) "job survives" 7 job;
      Alcotest.(check int) "seq survives" 2 seq;
      Alcotest.(check int) "all members survive" 5 (Array.length tasks');
      Array.iteri
        (fun i (idx, payload) ->
          Alcotest.(check int) "member index" i idx;
          Alcotest.(check int) "member payload"
            (i * i)
            (Marshal.from_string payload 0))
        tasks'
  | `Need_more | `Corrupt -> Alcotest.fail "expected a complete batch frame"

(* ------------------------------------------------------------------ *)
(* Basic sharded execution                                              *)

let test_try_map_order () =
  let xs = List.init 25 Fun.id in
  let reports = Exec.Shard.try_map ~shards:3 ~domains:2 (fun x -> x * x) xs in
  Alcotest.(check (list int))
    "results in submission order across 3 workers"
    (List.map (fun x -> x * x) xs)
    (List.map get_done reports)

let test_on_result_hook () =
  let seen = ref [] in
  let reports =
    Exec.Shard.try_map ~shards:2
      ~on_result:(fun i v -> seen := (i, v) :: !seen)
      (fun x -> x + 100) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "reports" [ 101; 102; 103; 104 ]
    (List.map get_done reports);
  Alcotest.(check (list (pair int int)))
    "hook saw every (index, value) exactly once"
    [ (0, 101); (1, 102); (2, 103); (3, 104) ]
    (List.sort compare !seen)

let test_task_failure_quarantines () =
  (* A deterministic task failure crosses the process boundary as
     Worker_failure carrying the printed exception, and under supervision
     consumes policy attempts (zero-delay policy: no sleeps). *)
  let policy =
    Exec.Supervise.policy ~max_attempts:3 ~base_delay_s:0. ~jitter:0. ()
  in
  let reports =
    Exec.Supervise.try_map ~policy sharded
      (fun x -> if x = 2 then failwith "poisoned cell" else x * 10)
      [ 1; 2; 3 ]
  in
  let supervised_done (r : _ Exec.Supervise.report) =
    match r.Exec.Supervise.status with
    | Exec.Supervise.Done v -> v
    | Exec.Supervise.Quarantined _ -> Alcotest.fail "unexpected quarantine"
  in
  match reports with
  | [ a; b; c ] ->
      Alcotest.(check int) "healthy neighbours keep results" 10 (supervised_done a);
      Alcotest.(check int) "healthy neighbours keep results" 30 (supervised_done c);
      (match b.Exec.Supervise.status with
      | Exec.Supervise.Quarantined e -> (
          match e.Exec.Pool.exn with
          | Exec.Shard.Worker_failure { printed; _ } ->
              Alcotest.(check bool) "printed exception preserved" true
                (String.length printed > 0
                && String.length (Str.global_replace (Str.regexp_string "poisoned cell") "" printed)
                   < String.length printed)
          | _ -> Alcotest.fail "expected Worker_failure")
      | Exec.Supervise.Done _ -> Alcotest.fail "poisoned cell must quarantine");
      Alcotest.(check int) "policy attempts consumed" 3 b.Exec.Supervise.attempts
  | _ -> Alcotest.fail "unexpected batch shape"

let test_supervision_agrees () =
  (* One supervision loop over either runner: the same batch under the
     same zero-delay 3-attempt policy must settle identically on the
     domain pool and on the worker fleet. Task 1 always raises; task 2
     raises only on its first attempt — a marker file remembers the
     attempt across worker processes. Its retry runs at round position 1,
     so the settle hook's batch index is the mapped one. *)
  let policy =
    Exec.Supervise.policy ~max_attempts:3 ~base_delay_s:0. ~jitter:0. ()
  in
  let run name runner =
    let marker = Filename.temp_file ("supervise_" ^ name) ".marker" in
    Sys.remove marker;
    Fun.protect ~finally:(fun () -> if Sys.file_exists marker then Sys.remove marker)
    @@ fun () ->
    let task x =
      match x with
      | 1 -> failwith "always fails"
      | 2 when not (Sys.file_exists marker) ->
          Out_channel.with_open_bin marker ignore;
          failwith "fails once"
      | x -> x * 10
    in
    let metric m = counter ("supervise." ^ m) in
    let before = List.map metric [ "attempts"; "retries"; "quarantined" ] in
    let seen = ref [] in
    let lock = Mutex.create () in
    let reports =
      Exec.Supervise.try_map ~policy
        ~on_result:(fun i v -> Mutex.protect lock (fun () -> seen := (i, v) :: !seen))
        runner task [ 0; 1; 2; 3 ]
    in
    let deltas =
      List.map2 ( - ) (List.map metric [ "attempts"; "retries"; "quarantined" ]) before
    in
    (* A remote failure carries the printed exception, a local one the
       exception itself: compare them printed. *)
    let shape (r : _ Exec.Supervise.report) =
      ( (match r.Exec.Supervise.status with
        | Exec.Supervise.Done v -> Ok v
        | Exec.Supervise.Quarantined e ->
            Error
              ( e.Exec.Pool.index,
                match e.Exec.Pool.exn with
                | Exec.Shard.Worker_failure { printed; _ } -> printed
                | exn -> Printexc.to_string exn )),
        r.Exec.Supervise.attempts )
    in
    ( List.map shape reports,
      Exec.Supervise.stats reports,
      deltas,
      List.sort compare !seen )
  in
  let pool_reports, pool_stats, pool_deltas, pool_seen =
    run "pool" (Exec.Supervise.in_process ~domains:2 ())
  in
  let shard_reports, shard_stats, shard_deltas, shard_seen = run "shard" sharded in
  let report_t =
    Alcotest.(list (pair (result int (pair int string)) int))
  in
  Alcotest.check report_t "pool reports as expected"
    [
      (Ok 0, 1);
      (Error (1, Printexc.to_string (Failure "always fails")), 3);
      (Ok 20, 2);
      (Ok 30, 1);
    ]
    pool_reports;
  Alcotest.check report_t "shard reports = pool reports" pool_reports shard_reports;
  Alcotest.(check bool) "shard stats = pool stats" true (shard_stats = pool_stats);
  Alcotest.(check (list int)) "pool supervise.{attempts,retries,quarantined}"
    [ 7; 3; 1 ] pool_deltas;
  Alcotest.(check (list int)) "shard counter deltas = pool deltas" pool_deltas
    shard_deltas;
  Alcotest.(check (list (pair int int))) "pool hook: once per Done, batch index"
    [ (0, 0); (2, 20); (3, 30) ]
    pool_seen;
  Alcotest.(check (list (pair int int))) "shard hook = pool hook" pool_seen shard_seen

let test_batched_execution () =
  (* 12 tasks in explicit batches of 3: results stay in submission order
     and the batch-size histogram records exactly the 4 assignment
     frames. *)
  let h = Obs.Metrics.histogram "shard.batch_size" in
  let count0 = (Obs.Metrics.summary h).Obs.Metrics.count in
  let xs = List.init 12 Fun.id in
  let reports = Exec.Shard.try_map ~shards:2 ~batch:3 (fun x -> x * 3) xs in
  Alcotest.(check (list int)) "results in submission order"
    (List.map (fun x -> x * 3) xs)
    (List.map get_done reports);
  Alcotest.(check int) "4 assignment frames of 3 cells" 4
    ((Obs.Metrics.summary h).Obs.Metrics.count - count0)

(* Every live shard worker spawned by this process (marker in argv,
   parent = us), by scanning /proc. ppid is the field after the
   parenthesised comm in /proc/<pid>/stat; comm can contain anything, so
   parse after the last ')'. *)
let find_workers () =
  let self = Unix.getpid () in
  let read_file f =
    try Some (In_channel.with_open_bin f In_channel.input_all)
    with Sys_error _ -> None
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun pid ->
         match
           ( read_file (Printf.sprintf "/proc/%d/stat" pid),
             read_file (Printf.sprintf "/proc/%d/cmdline" pid) )
         with
         | Some stat, Some cmdline -> (
             match String.rindex_opt stat ')' with
             | Some i -> (
                 match
                   String.split_on_char ' '
                     (String.sub stat (i + 2) (String.length stat - i - 2))
                 with
                 | _state :: ppid :: _ ->
                     ppid = string_of_int self
                     && Str.string_match
                          (Str.regexp ".*exec-shard-worker.*")
                          (String.map (fun c -> if c = '\000' then ' ' else c) cmdline)
                          0
                 | _ -> false)
             | None -> false)
         | _ -> false)

let test_fleet_persists_across_jobs () =
  (* The fleet is resident: two consecutive jobs on the same (shards,
     domains) shape must be served by the same worker processes, with no
     spawns in between. *)
  let xs = List.init 8 Fun.id in
  let r1 = Exec.Shard.try_map ~shards:2 (fun x -> x * 2) xs in
  let pids1 = List.sort compare (find_workers ()) in
  let respawns0 = counter "shard.respawns" in
  let r2 = Exec.Shard.try_map ~shards:2 (fun x -> x * 11) xs in
  let pids2 = List.sort compare (find_workers ()) in
  Alcotest.(check (list int)) "first job correct"
    (List.map (fun x -> x * 2) xs)
    (List.map get_done r1);
  Alcotest.(check (list int)) "second job correct"
    (List.map (fun x -> x * 11) xs)
    (List.map get_done r2);
  Alcotest.(check bool) "workers are resident between jobs" true (pids1 <> []);
  Alcotest.(check (list int)) "same processes served both jobs" pids1 pids2;
  Alcotest.(check int) "no respawns between jobs" 0
    (counter "shard.respawns" - respawns0)

let test_coordinators_get_disjoint_fleets () =
  (* Fleets are keyed by the coordinating domain: two domains sharding at
     the same time each drive their own worker processes instead of
     racing one fleet's sockets, and the main domain's fleet is reused
     from one job to the next. *)
  let job () =
    Exec.Shard.try_map ~shards:1
      (fun _ ->
        Unix.sleepf 0.05;
        Unix.getpid ())
      (List.init 8 Fun.id)
  in
  let pids results = List.sort_uniq compare (List.map get_done results) in
  let a = Domain.spawn job in
  let b = Domain.spawn job in
  let pids_a = pids (Domain.join a) in
  let pids_b = pids (Domain.join b) in
  Alcotest.(check bool) "disjoint worker processes" true
    (List.for_all (fun p -> not (List.mem p pids_b)) pids_a);
  let main1 = pids (job ()) in
  let main2 = pids (job ()) in
  Alcotest.(check (list int)) "main domain's fleet reused" main1 main2;
  Exec.Shard.shutdown_fleets ()

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                       *)

let test_torn_frame_recovery () =
  (* The worker handling the 2nd assignment writes half a result frame
     and dies. The coordinator must drop the torn frame, respawn, requeue
     and settle every task with the right value. *)
  let dropped0 = counter "shard.frames_dropped" in
  let respawns0 = counter "shard.respawns" in
  let xs = List.init 12 Fun.id in
  let reports =
    Exec.Shard.try_map ~shards:2
      ~havoc:(fun ~slot:_ ~seq ->
        if seq = 2 then Some Exec.Shard.Torn_frame else None)
      (fun x -> x * 7) xs
  in
  Alcotest.(check (list int)) "all tasks settle correctly"
    (List.map (fun x -> x * 7) xs)
    (List.map get_done reports);
  Alcotest.(check bool) "torn frame counted as dropped" true
    (counter "shard.frames_dropped" > dropped0);
  Alcotest.(check bool) "worker respawned" true
    (counter "shard.respawns" > respawns0)

let test_corrupt_frame_recovery () =
  (* A bit-flipped result frame fails its CRC: the stream is condemned,
     the worker killed and respawned, and the task recomputed — never
     settled from the corrupt payload. *)
  let dropped0 = counter "shard.frames_dropped" in
  let respawns0 = counter "shard.respawns" in
  let xs = List.init 12 Fun.id in
  let reports =
    Exec.Shard.try_map ~shards:2
      ~havoc:(fun ~slot:_ ~seq ->
        if seq = 2 then Some Exec.Shard.Corrupt_frame else None)
      (fun x -> x + 1000) xs
  in
  Alcotest.(check (list int)) "all tasks settle correctly"
    (List.map (fun x -> x + 1000) xs)
    (List.map get_done reports);
  Alcotest.(check bool) "corrupt frame dropped" true
    (counter "shard.frames_dropped" > dropped0);
  Alcotest.(check bool) "worker respawned" true
    (counter "shard.respawns" > respawns0)

let test_torn_batch_requeues_members_once () =
  (* A worker dying mid-batch loses the whole assignment: every member
     cell of the torn batch — and nothing else — is requeued, exactly
     once, and settles with the right value after the respawn. *)
  let requeued0 = counter "shard.cells_requeued" in
  let xs = List.init 12 Fun.id in
  let reports =
    Exec.Shard.try_map ~shards:2 ~batch:4
      ~havoc:(fun ~slot:_ ~seq ->
        if seq = 2 then Some Exec.Shard.Torn_frame else None)
      (fun x -> x + 5) xs
  in
  Alcotest.(check (list int)) "all tasks settle correctly"
    (List.map (fun x -> x + 5) xs)
    (List.map get_done reports);
  Alcotest.(check int) "the 4 members of the torn batch requeued once" 4
    (counter "shard.cells_requeued" - requeued0)

let test_restart_budget_exhaustion () =
  (* Every assignment tears: with a finite restart budget the run must
     still terminate, quarantining unsettled tasks as Worker_crashed
     rather than hanging or crashing the coordinator. *)
  let reports =
    Exec.Shard.try_map ~shards:1 ~restarts:1
      ~havoc:(fun ~slot:_ ~seq:_ -> Some Exec.Shard.Torn_frame)
      (fun x -> x) [ 1; 2; 3 ]
  in
  Alcotest.(check int) "every task reported" 3 (List.length reports);
  List.iter
    (function
      | Error (e : Exec.Pool.error) -> (
          match e.Exec.Pool.exn with
          | Exec.Shard.Worker_crashed _ -> ()
          | exn ->
              Alcotest.failf "expected Worker_crashed, got %s"
                (Printexc.to_string exn))
      | Ok _ -> Alcotest.fail "no task can settle when every frame tears")
    reports

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_no_fd_leak_on_death_paths () =
  (* Every coordinator death path must close its end of the worker's
     socket and reap the child. Starting from an empty fleet, a run that
     kills its worker repeatedly (budget exhaustion) followed by a fleet
     shutdown must restore the exact fd census, with no child left to
     wait on. *)
  Exec.Shard.shutdown_fleets ();
  let fds0 = count_fds () in
  ignore
    (Exec.Shard.try_map ~shards:2 ~restarts:1
       ~havoc:(fun ~slot:_ ~seq:_ -> Some Exec.Shard.Torn_frame)
       (fun x -> x) [ 1; 2; 3; 4 ]);
  Exec.Shard.shutdown_fleets ();
  Alcotest.(check int) "fd census unchanged" fds0 (count_fds ());
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.fail "an unreaped live child remains"
  | pid, _ -> Alcotest.failf "unreaped zombie %d collected by the test" pid

(* ------------------------------------------------------------------ *)
(* Liveness: heartbeats, hang detection, graceful degradation           *)

let test_hang_detected_and_requeued () =
  (* The worker serving the 2nd assignment wedges with its pipe open —
     the hang that EOF-based death detection can never see. The liveness
     sweep must notice the silence within [hang_timeout_s], SIGKILL the
     worker, requeue exactly the hung batch's cells under the restart
     budget, and settle everything correctly. *)
  let hangs0 = counter "shard.hangs_detected" in
  let requeued0 = counter "shard.cells_requeued" in
  let respawns0 = counter "shard.respawns" in
  let xs = List.init 8 Fun.id in
  let t0 = Unix.gettimeofday () in
  let reports =
    Exec.Shard.try_map ~shards:2 ~batch:2 ~hang_timeout_s:1.0
      ~havoc:(fun ~slot:_ ~seq ->
        if seq = 2 then Some Exec.Shard.Hang else None)
      (fun x -> x * 9) xs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list int)) "all tasks settle correctly"
    (List.map (fun x -> x * 9) xs)
    (List.map get_done reports);
  Alcotest.(check bool) "hang detected" true
    (counter "shard.hangs_detected" > hangs0);
  Alcotest.(check int) "the hung batch's 2 cells requeued" 2
    (counter "shard.cells_requeued" - requeued0);
  Alcotest.(check bool) "hung worker replaced under the restart budget" true
    (counter "shard.respawns" > respawns0);
  (* Detection is deadline-driven, not luck: a 1 s timeout must resolve
     the whole job well inside this generous bound. *)
  Alcotest.(check bool) "recovered promptly" true (elapsed < 20.)

let test_sigstopped_worker_recovered () =
  (* SIGSTOP freezes the worker wholesale — heartbeat domain included —
     without closing its pipe: from the coordinator's seat this is
     exactly the open-pipe hang. The stopped worker must be declared
     hung, SIGKILLed (SIGKILL penetrates a stopped process), and its
     cells requeued. The stopper runs on its own domain, polling /proc
     until a worker exists. *)
  Exec.Shard.shutdown_fleets ();
  let hangs0 = counter "shard.hangs_detected" in
  let stopped = Atomic.make 0 in
  let stopper =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 60. in
        let rec hunt () =
          if Unix.gettimeofday () < deadline && Atomic.get stopped = 0 then (
            (match find_workers () with
            | pid :: _ -> (
                try
                  Unix.kill pid Sys.sigstop;
                  Atomic.set stopped pid
                with Unix.Unix_error _ -> ())
            | [] -> ());
            if Atomic.get stopped = 0 then (
              Unix.sleepf 0.005;
              hunt ()))
        in
        hunt ())
  in
  let xs = List.init 10 Fun.id in
  let t0 = Unix.gettimeofday () in
  let reports =
    Exec.Shard.try_map ~shards:1 ~batch:2 ~hang_timeout_s:1.0
      (fun x ->
        Unix.sleepf 0.15;
        x * 3)
      xs
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Domain.join stopper;
  Alcotest.(check bool) "the stopper found and froze a worker" true
    (Atomic.get stopped > 0);
  Alcotest.(check (list int)) "all tasks settle correctly"
    (List.map (fun x -> x * 3) xs)
    (List.map get_done reports);
  Alcotest.(check bool) "frozen worker detected as hung" true
    (counter "shard.hangs_detected" > hangs0);
  Alcotest.(check bool) "recovered within the liveness deadline (+ slack)"
    true (elapsed < 30.)

let test_busy_loop_caught_by_deadline () =
  (* A task stuck in an OCaml busy-loop keeps the worker's heartbeat
     domain beating, so the silence sweep never fires; only the explicit
     per-batch deadline can catch it. First dispatch spins (flag file
     absent); the requeued dispatch sees the flag and returns. *)
  let flag = Filename.temp_file "shard_busy" ".flag" in
  Sys.remove flag;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists flag then Sys.remove flag)
  @@ fun () ->
  let hangs0 = counter "shard.hangs_detected" in
  let task x =
    if x = 2 && not (Sys.file_exists flag) then begin
      Out_channel.with_open_bin flag (fun oc ->
          Out_channel.output_string oc "spinning");
      (* Bounded spin: if deadline detection ever regresses this poisons
         the result instead of hanging the suite. *)
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 30. do
        ignore (Sys.opaque_identity 0)
      done;
      -1
    end
    else x * 4
  in
  let reports =
    Exec.Shard.try_map ~shards:1 ~batch:1 ~deadline_s:1.0 task [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "spinner killed, requeued and settled"
    [ 0; 4; 8; 12 ]
    (List.map get_done reports);
  Alcotest.(check bool) "busy-loop caught by the batch deadline" true
    (counter "shard.hangs_detected" > hangs0)

let test_slow_worker_not_killed () =
  (* Slow-but-healthy: the worker delays its results past the hang
     timeout while heartbeating throughout. Liveness must keep its hands
     off — no kill, no respawn, no hang counted. *)
  let hangs0 = counter "shard.hangs_detected" in
  let beats0 = counter "shard.heartbeats" in
  let respawns0 = counter "shard.respawns" in
  let reports =
    Exec.Shard.try_map ~shards:1 ~hang_timeout_s:0.6
      ~havoc:(fun ~slot:_ ~seq ->
        if seq = 1 then Some (Exec.Shard.Slow 1.2) else None)
      (fun x -> x * 6) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list int)) "all tasks settle correctly" [ 6; 12; 18; 24 ]
    (List.map get_done reports);
  Alcotest.(check int) "no hang detected" 0
    (counter "shard.hangs_detected" - hangs0);
  Alcotest.(check int) "no respawn" 0 (counter "shard.respawns" - respawns0);
  Alcotest.(check bool) "heartbeats kept the worker alive" true
    (counter "shard.heartbeats" > beats0)

let test_total_spawn_failure_falls_back () =
  (* Every spawn fails, so the job starts with zero live workers: the
     run must fall back to the in-process supervised pool — same
     results, same hooks — instead of dying or hanging. *)
  Exec.Shard.shutdown_fleets ();
  let fallbacks0 = counter "shard.fallbacks" in
  let spawn_failures0 = counter "shard.spawn_failures" in
  let seen = ref [] in
  let reports =
    Exec.Shard.try_map ~shards:2
      ~spawn_fault:(fun ~attempt:_ -> true)
      ~on_result:(fun i v -> seen := (i, v) :: !seen)
      (fun x -> x + 7) [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "fallback results correct" [ 8; 9; 10 ]
    (List.map get_done reports);
  Alcotest.(check int) "fallback counted once" 1
    (counter "shard.fallbacks" - fallbacks0);
  Alcotest.(check bool) "spawn failures counted" true
    (counter "shard.spawn_failures" - spawn_failures0 >= 2);
  Alcotest.(check (list (pair int int))) "on_result fired in-process"
    [ (0, 8); (1, 9); (2, 10) ]
    (List.sort compare !seen);
  Exec.Shard.shutdown_fleets ()

let test_partial_spawn_failure_stays_sharded () =
  (* One slot's spawn fails, the other's succeeds: the job must run
     sharded on the degraded fleet — no fallback — and still settle
     every cell. *)
  Exec.Shard.shutdown_fleets ();
  let fallbacks0 = counter "shard.fallbacks" in
  let spawn_failures0 = counter "shard.spawn_failures" in
  let xs = List.init 10 Fun.id in
  let reports =
    Exec.Shard.try_map ~shards:2
      ~spawn_fault:(fun ~attempt -> attempt = 1)
      (fun x -> x * 13) xs
  in
  Alcotest.(check (list int)) "degraded fleet settles everything"
    (List.map (fun x -> x * 13) xs)
    (List.map get_done reports);
  Alcotest.(check int) "no fallback: one worker survived" 0
    (counter "shard.fallbacks" - fallbacks0);
  Alcotest.(check int) "the failed spawn counted" 1
    (counter "shard.spawn_failures" - spawn_failures0);
  Exec.Shard.shutdown_fleets ()

(* ------------------------------------------------------------------ *)
(* Sharded campaigns: the determinism contract                          *)

(* The single-process reference for the pinned seed-42 smoke matrix,
   computed once (the outcome cache makes later comparisons free). *)
let reference =
  lazy (Scenarios.Campaign.run ~domains:1 (Scenarios.Campaign.smoke ()))

let check_matches_reference what (c : Scenarios.Campaign.t) =
  let r = Lazy.force reference in
  Alcotest.(check bool)
    (what ^ ": cells bit-for-bit identical") true
    (c.Scenarios.Campaign.cells = r.Scenarios.Campaign.cells);
  Alcotest.(check string)
    (what ^ ": CSV byte-identical")
    (Scenarios.Export.campaign_csv r)
    (Scenarios.Export.campaign_csv c);
  (* The pinned coverage counts of the seed-42 smoke grid (EXPERIMENTS.md). *)
  Alcotest.(check (list int))
    (what ^ ": pinned detection counts")
    [ 3; 4; 1; 4 ]
    [
      c.Scenarios.Campaign.detected;
      c.Scenarios.Campaign.missed;
      c.Scenarios.Campaign.spurious;
      c.Scenarios.Campaign.no_effect;
    ];
  Alcotest.(check (list int))
    (what ^ ": pinned classification counts")
    [ 70; 22; 63; 3 ]
    [
      c.Scenarios.Campaign.hits;
      c.Scenarios.Campaign.false_negatives;
      c.Scenarios.Campaign.false_positives;
      c.Scenarios.Campaign.inhibited;
    ]

let test_sharded_matches_single_process () =
  ignore (Lazy.force reference);
  let executed0 = counter "campaign.cells_executed" in
  let c = Scenarios.Campaign.run ~shards:2 ~domains:1 (Scenarios.Campaign.smoke ()) in
  check_matches_reference "2 shards" c;
  Alcotest.(check int) "coordinator counted all 12 cells" 12
    (counter "campaign.cells_executed" - executed0);
  Alcotest.(check int) "robustness: 12 executed" 12
    c.Scenarios.Campaign.robustness.Scenarios.Campaign.executed

let find_worker () =
  match find_workers () with [] -> None | pid :: _ -> Some pid

let test_sigkill_worker_mid_grid () =
  (* SIGKILL a real worker while the grid is running; the campaign must
     absorb the crash (respawn + requeue) and still produce the exact
     single-process matrix and CSV. The killer runs on its own domain,
     polling /proc until a worker exists. The fleet starts cold: a
     resident fleet with warm trace caches can finish the grid before the
     killer finds a worker, and a kill after the job is no respawn. *)
  ignore (Lazy.force reference);
  Exec.Shard.shutdown_fleets ();
  let respawns0 = counter "shard.respawns" in
  let killed = Atomic.make 0 in
  let killer =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 60. in
        let rec hunt () =
          if Unix.gettimeofday () < deadline && Atomic.get killed = 0 then (
            (match find_worker () with
            | Some pid -> (
                try
                  Unix.kill pid Sys.sigkill;
                  Atomic.set killed pid
                with Unix.Unix_error _ -> ())
            | None -> ());
            if Atomic.get killed = 0 then (
              Unix.sleepf 0.01;
              hunt ()))
        in
        hunt ())
  in
  let c = Scenarios.Campaign.run ~shards:2 ~domains:1 (Scenarios.Campaign.smoke ()) in
  Domain.join killer;
  Alcotest.(check bool) "the killer found and killed a worker" true
    (Atomic.get killed > 0);
  Alcotest.(check bool) "shard.respawns >= 1" true
    (counter "shard.respawns" > respawns0);
  check_matches_reference "after worker SIGKILL" c

let test_campaign_under_chaos_plan () =
  (* The flagship chaos contract: a pinned-seed sharded campaign under a
     plan injecting a hang, a crash, a torn frame and a corrupt frame
     still produces the exact single-process matrix and CSV. With 2
     slots at the default restart budget the plan's 4 deaths can never
     exhaust both slots, so every cell settles. *)
  ignore (Lazy.force reference);
  let hangs0 = counter "shard.hangs_detected" in
  let chaos =
    match Exec.Chaos.parse ~seed:42 "hang@2,crash@4,torn@6,corrupt@8" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let c =
    Scenarios.Campaign.run ~shards:2 ~domains:1 ~batch:1 ~chaos
      ~hang_timeout_s:1.5 (Scenarios.Campaign.smoke ())
  in
  check_matches_reference "campaign under chaos" c;
  Alcotest.(check bool) "the injected hang was detected" true
    (counter "shard.hangs_detected" > hangs0)

let () =
  Alcotest.run "shard"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "byte-at-a-time streaming" `Quick
            test_frame_streaming;
          Alcotest.test_case "torn tail reads as short" `Quick
            test_frame_torn_tail;
          Alcotest.test_case "corruption detected" `Quick test_frame_corruption;
          Alcotest.test_case "batched assignment round-trip" `Quick
            test_frame_batch_roundtrip;
        ] );
      ( "exec",
        [
          Alcotest.test_case "submission order across workers" `Quick
            test_try_map_order;
          Alcotest.test_case "on_result hook" `Quick test_on_result_hook;
          Alcotest.test_case "task failure quarantines" `Quick
            test_task_failure_quarantines;
          Alcotest.test_case "pool and shard supervision agree" `Quick
            test_supervision_agrees;
          Alcotest.test_case "batched frames settle in order" `Quick
            test_batched_execution;
          Alcotest.test_case "fleet persists across jobs" `Quick
            test_fleet_persists_across_jobs;
          Alcotest.test_case "concurrent coordinators get disjoint fleets" `Quick
            test_coordinators_get_disjoint_fleets;
        ] );
      ( "crash",
        [
          Alcotest.test_case "torn frame recovered" `Quick
            test_torn_frame_recovery;
          Alcotest.test_case "corrupt frame recovered" `Quick
            test_corrupt_frame_recovery;
          Alcotest.test_case "torn batch requeues its members once" `Quick
            test_torn_batch_requeues_members_once;
          Alcotest.test_case "restart budget exhaustion terminates" `Quick
            test_restart_budget_exhaustion;
          Alcotest.test_case "no fd leak across death paths" `Quick
            test_no_fd_leak_on_death_paths;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "open-pipe hang detected and requeued" `Quick
            test_hang_detected_and_requeued;
          Alcotest.test_case "SIGSTOPped worker recovered" `Quick
            test_sigstopped_worker_recovered;
          Alcotest.test_case "busy-loop caught by batch deadline" `Quick
            test_busy_loop_caught_by_deadline;
          Alcotest.test_case "slow-but-heartbeating worker spared" `Quick
            test_slow_worker_not_killed;
          Alcotest.test_case "total spawn failure falls back in-process"
            `Quick test_total_spawn_failure_falls_back;
          Alcotest.test_case "partial spawn failure stays sharded" `Quick
            test_partial_spawn_failure_stays_sharded;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "sharded = single-process bit-for-bit" `Slow
            test_sharded_matches_single_process;
          Alcotest.test_case "worker SIGKILL mid-grid absorbed" `Slow
            test_sigkill_worker_mid_grid;
          Alcotest.test_case "chaos plan: matrix bit-for-bit identical" `Slow
            test_campaign_under_chaos_plan;
        ] );
    ]
