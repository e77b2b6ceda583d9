(** Crash-safe journal: round-trips, tolerance to torn and corrupted
    tails, and the campaign resume contract (resumed run = uninterrupted
    run, bit-for-bit, re-simulating only the missing cells). *)

module Journal_access = Scenarios.Journal

let tmp name =
  let path = Filename.temp_file "journal_test_" ("_" ^ name ^ ".jnl") in
  Sys.remove path;
  path

let with_path name f =
  let path = tmp name in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Record-level robustness                                              *)

let entries_t = Alcotest.(list (pair string (pair int string)))

(* Every intact record in append order, with what the fold saw. *)
let fold_all path =
  let entries, stats =
    Journal_access.fold path ~init:[] ~f:(fun acc k (v : int * string) -> (k, v) :: acc)
  in
  (List.rev entries, stats)

let test_round_trip () =
  with_path "roundtrip" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Journal_access.append w ~key:"b" (2, "two");
      Journal_access.append w ~key:"c" (3, "three"));
  let entries, stats = fold_all path in
  Alcotest.check entries_t "entries in append order"
    [ ("a", (1, "one")); ("b", (2, "two")); ("c", (3, "three")) ]
    entries;
  Alcotest.(check int) "3 records" 3 stats.Journal_access.fold_records;
  Alcotest.(check int) "nothing dropped" 0 stats.Journal_access.fold_dropped_bytes

let test_absent_and_empty () =
  with_path "absent" @@ fun path ->
  let entries, stats = fold_all path in
  Alcotest.check entries_t "absent file: empty" [] entries;
  Alcotest.(check int) "absent file: nothing dropped" 0
    stats.Journal_access.fold_dropped_bytes;
  (* An empty file (created, nothing appended) also replays clean. *)
  Journal_access.with_writer path (fun _ -> ());
  let entries, stats = fold_all path in
  Alcotest.check entries_t "empty file: empty" [] entries;
  Alcotest.(check int) "empty file: nothing dropped" 0
    stats.Journal_access.fold_dropped_bytes

let test_truncated_tail () =
  with_path "torn" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Journal_access.append w ~key:"b" (2, "two"));
  (* Tear the final record mid-payload, as a crash mid-append would. *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 5);
  let entries, stats = fold_all path in
  Alcotest.check entries_t "intact prefix survives" [ ("a", (1, "one")) ] entries;
  Alcotest.(check bool) "torn bytes counted" true
    (stats.Journal_access.fold_dropped_bytes > 0)

let test_bit_flip () =
  with_path "flip" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Journal_access.append w ~key:"b" (2, "two"));
  let size = (Unix.stat path).Unix.st_size in
  (* Flip one bit in the last record's payload: its CRC must reject it
     while the first record replays untouched. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
      let b = Bytes.create 1 in
      assert (Unix.read fd b 0 1 = 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
      ignore (Unix.lseek fd (size - 3) Unix.SEEK_SET);
      assert (Unix.write fd b 0 1 = 1));
  let entries, stats = fold_all path in
  Alcotest.check entries_t "corrupt record rejected, prefix kept"
    [ ("a", (1, "one")) ]
    entries;
  Alcotest.(check bool) "corrupt bytes counted" true
    (stats.Journal_access.fold_dropped_bytes > 0)

let test_duplicate_last_wins () =
  with_path "dup" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "stale");
      Journal_access.append w ~key:"b" (2, "two");
      Journal_access.append w ~key:"a" (3, "fresh"));
  (* A consumer that overwrites by key, as the resume path does, ends
     with each key's last occurrence. *)
  let latest = Hashtbl.create 4 in
  let (), stats =
    Journal_access.fold path ~init:() ~f:(fun () k (v : int * string) ->
        Hashtbl.replace latest k v)
  in
  Alcotest.check entries_t "last occurrence wins"
    [ ("a", (3, "fresh")); ("b", (2, "two")) ]
    (List.map (fun k -> (k, Hashtbl.find latest k)) [ "a"; "b" ]);
  Alcotest.(check int) "all intact records counted" 3 stats.Journal_access.fold_records

let test_fresh_truncates_append_extends () =
  with_path "fresh" @@ fun path ->
  Journal_access.with_writer path (fun w -> Journal_access.append w ~key:"a" (1, "one"));
  Journal_access.with_writer path (fun w -> Journal_access.append w ~key:"b" (2, "two"));
  Alcotest.(check int) "default append mode extends" 2
    (List.length (fst (fold_all path)));
  Journal_access.with_writer ~fresh:true path (fun w ->
      Journal_access.append w ~key:"c" (3, "three"));
  Alcotest.check entries_t "fresh mode truncates"
    [ ("c", (3, "three")) ]
    (fst (fold_all path))

let test_fold_streams_with_stats () =
  with_path "fold" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Journal_access.append w ~key:"b" (2, "two");
      Journal_access.append w ~key:"a" (3, "fresh"));
  (* fold streams every intact record in append order — duplicates
     included; last-wins collapsing is the consumer's job, not fold's. *)
  let keys, stats =
    Journal_access.fold path ~init:[] ~f:(fun acc k ((_ : int), (_ : string)) ->
        k :: acc)
  in
  Alcotest.(check (list string)) "append order, duplicates kept" [ "a"; "b"; "a" ]
    (List.rev keys);
  Alcotest.(check int) "records counted" 3 stats.Journal_access.fold_records;
  Alcotest.(check int) "nothing dropped" 0 stats.Journal_access.fold_dropped_bytes;
  Alcotest.(check int) "valid bytes = file size"
    (Unix.stat path).Unix.st_size stats.Journal_access.fold_valid_bytes

let test_repair_reclaims_torn_tail () =
  with_path "repair" @@ fun path ->
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Journal_access.append w ~key:"b" (2, "two"));
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 5);
  (* Without repair, appends after the tear would be unreachable: replay
     stops at the first invalid record, so anything written beyond it is
     durable but dead. repair truncates the torn bytes first. *)
  let dropped = Journal_access.repair path in
  Alcotest.(check bool) "torn bytes reclaimed" true (dropped > 0);
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"c" (3, "three"));
  Alcotest.check entries_t "post-repair appends replay"
    [ ("a", (1, "one")); ("c", (3, "three")) ]
    (fst (fold_all path));
  Alcotest.(check int) "file is clean again" 0 (Journal_access.repair path)

let test_crc32_vector () =
  (* The standard check value: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "IEEE 802.3 check vector" 0xCBF43926l
    (Journal_access.crc32 "123456789");
  Alcotest.(check int32) "empty string" 0l (Journal_access.crc32 "")

(* ------------------------------------------------------------------ *)
(* Device failures: typed errors and degraded mode                      *)

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* A chaos plan from its [--chaos] spec. *)
let plan spec =
  match Exec.Chaos.parse ~seed:42 spec with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_write_fault_degrades_and_replay_keeps_prefix () =
  with_path "wfault_degrade" @@ fun path ->
  let errors0 = counter "journal.write_errors" in
  let dropped0 = counter "journal.appends_dropped" in
  Journal_access.with_writer ~chaos:(plan "jwrite@2") path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Alcotest.(check bool) "healthy so far" false (Journal_access.degraded w);
      (* The faulted append tears the record on disk and is absorbed. *)
      Journal_access.append w ~key:"b" (2, "two");
      Alcotest.(check bool) "degraded after the device failure" true
        (Journal_access.degraded w);
      (* Degradation is terminal: later appends are skipped, not
         written after the torn record (replay would never reach them). *)
      Journal_access.append w ~key:"c" (3, "three"));
  Alcotest.(check int) "one write error counted" 1
    (counter "journal.write_errors" - errors0);
  Alcotest.(check int) "one post-failure append dropped" 1
    (counter "journal.appends_dropped" - dropped0);
  (* Replay integrity: the intact prefix survives, the torn record is
     rejected, and nothing after it ever reached the file. *)
  let entries, stats = fold_all path in
  Alcotest.check entries_t "only the pre-fault prefix replays"
    [ ("a", (1, "one")) ]
    entries;
  Alcotest.(check bool) "the torn record's bytes counted as dropped" true
    (stats.Journal_access.fold_dropped_bytes > 0)

let test_fsync_fault_degrades () =
  with_path "ffault" @@ fun path ->
  (* An fsync failure (ENOSPC) after a fully flushed record: the record
     is on disk, but durability is gone — the writer degrades all the
     same, and the flushed record still replays. *)
  Journal_access.with_writer ~chaos:(plan "jfsync@1") path (fun w ->
      Journal_access.append w ~key:"a" (1, "one");
      Alcotest.(check bool) "degraded by the fsync failure" true
        (Journal_access.degraded w));
  Alcotest.check entries_t "the flushed record replays" [ ("a", (1, "one")) ]
    (fst (fold_all path))

let test_closed_writer_rejected () =
  with_path "closed" @@ fun path ->
  let w = Journal_access.create path in
  Journal_access.append w ~key:"a" (1, "one");
  Journal_access.close w;
  Alcotest.check_raises "append after close rejected"
    (Invalid_argument "Journal.append: writer is closed") (fun () ->
      Journal_access.append w ~key:"b" (2, "two"))

let test_closure_refused () =
  (* Journaled values are closure-free: a closure is refused at append
     time, and not one byte reaches the file. *)
  with_path "closure" @@ fun path ->
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Journal_access.with_writer path (fun w ->
      Journal_access.append w ~key:"a" (1, "one"));
  let before = read () in
  Journal_access.with_writer path (fun w ->
      match Journal_access.append w ~key:"b" (2, fun () -> "two") with
      | () -> Alcotest.fail "a closure was journaled"
      | exception Invalid_argument _ -> ());
  Alcotest.(check string) "file unchanged" before (read ());
  Alcotest.check entries_t "the earlier record still replays alone"
    [ ("a", (1, "one")) ]
    (fst (fold_all path))

(* ------------------------------------------------------------------ *)
(* Campaign resume contract                                             *)

let grid seed =
  let smoke = Scenarios.Campaign.smoke ~seed () in
  (* Two faults × two scenarios: small enough for a quick test, large
     enough that a partial journal is meaningful. *)
  {
    Scenarios.Campaign.seed;
    faults =
      (match smoke.Scenarios.Campaign.faults with
      | a :: b :: _ -> [ a; b ]
      | _ -> Alcotest.fail "smoke grid too small");
    grid_scenarios = [ Scenarios.Defs.get 1; Scenarios.Defs.get 3 ];
  }

let strip_robustness (c : Scenarios.Campaign.t) =
  Scenarios.Export.campaign_csv c

let test_campaign_journal_fresh_and_replay () =
  with_path "campaign" @@ fun path ->
  let g = grid 42 in
  let baseline = Scenarios.Campaign.run ~domains:1 g in
  let journaled = Scenarios.Campaign.run ~domains:1 ~journal:path g in
  Alcotest.(check string) "journaled run = plain run (CSV)"
    (strip_robustness baseline) (strip_robustness journaled);
  let r = journaled.Scenarios.Campaign.robustness in
  Alcotest.(check int) "fresh run executed every cell" 4 r.Scenarios.Campaign.executed;
  Alcotest.(check int) "fresh run replayed nothing" 0 r.Scenarios.Campaign.replayed;
  (* Full replay: drop the in-process caches to prove the cells come from
     the journal, not from memory. *)
  Scenarios.Runner.clear_cache ();
  let misses_before = (Scenarios.Runner.cache_stats ()).Exec.Memo.misses in
  let resumed = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check string) "replayed run = plain run (CSV)"
    (strip_robustness baseline) (strip_robustness resumed);
  let r = resumed.Scenarios.Campaign.robustness in
  Alcotest.(check int) "replay executed nothing" 0 r.Scenarios.Campaign.executed;
  Alcotest.(check int) "replay restored every cell" 4 r.Scenarios.Campaign.replayed;
  Alcotest.(check int) "no cell re-simulated"
    misses_before
    (Scenarios.Runner.cache_stats ()).Exec.Memo.misses

let test_campaign_partial_resume () =
  with_path "partial" @@ fun path ->
  let g = grid 42 in
  let baseline = Scenarios.Campaign.run ~domains:1 g in
  (* Simulate a campaign killed partway: journal only the first fault's
     cells by running a sub-grid against the same journal path. *)
  let partial = { g with Scenarios.Campaign.faults = [ List.hd g.Scenarios.Campaign.faults ] } in
  let first = Scenarios.Campaign.run ~domains:1 ~journal:path partial in
  Alcotest.(check int) "partial run journaled 2 cells" 2
    first.Scenarios.Campaign.robustness.Scenarios.Campaign.executed;
  (* Resume the *full* grid from the partial journal: only the second
     fault's cells may execute, and the matrix must be bit-for-bit the
     uninterrupted one. *)
  let resumed = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check string) "resumed CSV = uninterrupted CSV"
    (strip_robustness baseline) (strip_robustness resumed);
  let r = resumed.Scenarios.Campaign.robustness in
  Alcotest.(check int) "only missing cells executed" 2 r.Scenarios.Campaign.executed;
  Alcotest.(check int) "journaled cells replayed" 2 r.Scenarios.Campaign.replayed;
  Alcotest.(check int) "nothing quarantined" 0 r.Scenarios.Campaign.quarantined;
  (* And the journal now holds the full grid: a second resume replays
     everything. *)
  let again = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check int) "second resume replays all" 4
    again.Scenarios.Campaign.robustness.Scenarios.Campaign.replayed;
  Alcotest.(check string) "second resume still identical"
    (strip_robustness baseline) (strip_robustness again)

let test_campaign_journal_corrupt_tail_recovers () =
  with_path "crashy" @@ fun path ->
  let g = grid 42 in
  let baseline = Scenarios.Campaign.run ~domains:1 g in
  ignore (Scenarios.Campaign.run ~domains:1 ~journal:path g);
  (* Tear the journal's final record, as SIGKILL mid-append would, then
     resume: the torn cell re-executes and the matrix is unchanged. *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 7);
  let resumed = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check string) "resume over torn tail = uninterrupted"
    (strip_robustness baseline) (strip_robustness resumed);
  let r = resumed.Scenarios.Campaign.robustness in
  Alcotest.(check int) "torn cell re-executed" 1 r.Scenarios.Campaign.executed;
  Alcotest.(check int) "intact cells replayed" 3 r.Scenarios.Campaign.replayed;
  (* The resume repaired the tear before appending, so the re-executed
     cell is reachable: a second resume replays the full grid instead of
     silently re-simulating it forever. *)
  let again = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check int) "second resume replays everything" 4
    again.Scenarios.Campaign.robustness.Scenarios.Campaign.replayed;
  Alcotest.(check int) "second resume executes nothing" 0
    again.Scenarios.Campaign.robustness.Scenarios.Campaign.executed

let test_campaign_survives_journal_write_fault () =
  with_path "chaosjnl" @@ fun path ->
  let g = grid 42 in
  let baseline = Scenarios.Campaign.run ~domains:1 g in
  (* A journal device failure mid-campaign (3rd append's write fails):
     the campaign must finish with a bit-for-bit identical matrix,
     flagged degraded, and a resume from the truncated journal must
     re-execute exactly the cells lost to the failure. *)
  let chaotic =
    Scenarios.Campaign.run ~domains:1 ~journal:path ~chaos:(plan "jwrite@3") g
  in
  Alcotest.(check string) "degraded run = plain run (CSV)"
    (strip_robustness baseline) (strip_robustness chaotic);
  Alcotest.(check bool) "robustness reports the degradation" true
    chaotic.Scenarios.Campaign.robustness.Scenarios.Campaign.degraded;
  (* Only appends 1–2 reached the file; the resume re-runs cells 3–4. *)
  Scenarios.Runner.clear_cache ();
  let resumed = Scenarios.Campaign.run ~domains:1 ~journal:path ~resume:true g in
  Alcotest.(check string) "resumed CSV still identical"
    (strip_robustness baseline) (strip_robustness resumed);
  let r = resumed.Scenarios.Campaign.robustness in
  Alcotest.(check int) "the 2 unjournaled cells re-executed" 2
    r.Scenarios.Campaign.executed;
  Alcotest.(check int) "the 2 durable cells replayed" 2
    r.Scenarios.Campaign.replayed;
  Alcotest.(check bool) "resume with a healthy device is not degraded" false
    r.Scenarios.Campaign.degraded

let () =
  Alcotest.run "journal"
    [
      ( "records",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "absent and empty files" `Quick test_absent_and_empty;
          Alcotest.test_case "truncated tail skipped" `Quick test_truncated_tail;
          Alcotest.test_case "bit flip rejected by CRC" `Quick test_bit_flip;
          Alcotest.test_case "duplicate keys: last wins" `Quick
            test_duplicate_last_wins;
          Alcotest.test_case "fresh truncates, append extends" `Quick
            test_fresh_truncates_append_extends;
          Alcotest.test_case "fold streams with stats" `Quick
            test_fold_streams_with_stats;
          Alcotest.test_case "repair reclaims a torn tail" `Quick
            test_repair_reclaims_torn_tail;
          Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
        ] );
      ( "device failures",
        [
          Alcotest.test_case "write fault degrades; replay keeps the prefix"
            `Quick test_write_fault_degrades_and_replay_keeps_prefix;
          Alcotest.test_case "fsync fault degrades" `Quick
            test_fsync_fault_degrades;
          Alcotest.test_case "closure refused, file unchanged" `Quick
            test_closure_refused;
          Alcotest.test_case "append after close rejected" `Quick
            test_closed_writer_rejected;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "journal + full replay" `Slow
            test_campaign_journal_fresh_and_replay;
          Alcotest.test_case "partial journal resumes to identical matrix" `Slow
            test_campaign_partial_resume;
          Alcotest.test_case "torn tail re-executes only the torn cell" `Slow
            test_campaign_journal_corrupt_tail_recovers;
          Alcotest.test_case "journal write fault degrades, matrix unchanged"
            `Slow test_campaign_survives_journal_write_fault;
        ] );
    ]
