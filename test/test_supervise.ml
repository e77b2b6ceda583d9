(** Supervised batch execution: immediate retry, quarantine and attempt
    accounting. *)

exception Flaky of int
exception Fatal

(* A task that fails its first [n] attempts, then succeeds. Attempt
   counters are atomics because supervised batches may run on pool
   domains. *)
let flaky_until n =
  let counts = Hashtbl.create 8 in
  let lock = Mutex.create () in
  let counter i =
    Mutex.lock lock;
    let c =
      match Hashtbl.find_opt counts i with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add counts i c;
          c
    in
    Mutex.unlock lock;
    c
  in
  let task i =
    let attempt = 1 + Atomic.fetch_and_add (counter i) 1 in
    if attempt <= n then raise (Flaky i);
    i * 10
  in
  (task, fun i -> Atomic.get (counter i))

(* The in-process runner on [domains] domains. *)
let pool domains = Exec.Supervise.in_process ~domains ()

let get_done (r : _ Exec.Supervise.report) =
  match r.Exec.Supervise.status with
  | Exec.Supervise.Done v -> v
  | Exec.Supervise.Quarantined _ -> Alcotest.fail "unexpected quarantine"

let test_retry_until_success () =
  let task, attempts_of = flaky_until 2 in
  let reports = Exec.Supervise.try_map ~attempts:3 (pool 1) task [ 0; 1; 2 ] in
  Alcotest.(check (list int))
    "all tasks eventually succeed, in submission order" [ 0; 10; 20 ]
    (List.map get_done reports);
  List.iter
    (fun (r : _ Exec.Supervise.report) ->
      Alcotest.(check int) "3 attempts reported" 3 r.Exec.Supervise.attempts)
    reports;
  List.iter
    (fun i -> Alcotest.(check int) "3 attempts made" 3 (attempts_of i))
    [ 0; 1; 2 ];
  let s = Exec.Supervise.stats reports in
  Alcotest.(check int) "stats: tasks" 3 s.Exec.Supervise.tasks;
  Alcotest.(check int) "stats: retried" 3 s.Exec.Supervise.retried;
  Alcotest.(check int) "stats: retries" 6 s.Exec.Supervise.retries;
  Alcotest.(check int) "stats: none quarantined" 0 s.Exec.Supervise.quarantined

let test_quarantine_after_exhaustion () =
  (* Task 1 never succeeds within 2 attempts; the rest of the batch is
     unaffected and keeps its results. *)
  let task, attempts_of = flaky_until 5 in
  let mixed i = if i = 1 then task i else i * 10 in
  let reports = Exec.Supervise.try_map ~attempts:2 (pool 1) mixed [ 0; 1; 2 ] in
  (match reports with
  | [ a; b; c ] ->
      Alcotest.(check int) "task 0 result" 0 (get_done a);
      Alcotest.(check int) "task 2 result" 20 (get_done c);
      Alcotest.(check int) "healthy tasks ran once" 1 a.Exec.Supervise.attempts;
      (match b.Exec.Supervise.status with
      | Exec.Supervise.Quarantined e ->
          Alcotest.(check bool) "last error preserved" true
            (e.Exec.Pool.exn = Flaky 1);
          Alcotest.(check int) "index is the original batch position" 1
            e.Exec.Pool.index
      | Exec.Supervise.Done _ -> Alcotest.fail "task 1 must be quarantined");
      Alcotest.(check int) "quarantined after its 2 attempts" 2
        b.Exec.Supervise.attempts;
      Alcotest.(check int) "2 attempts actually made" 2 (attempts_of 1)
  | _ -> Alcotest.fail "unexpected batch shape");
  let s = Exec.Supervise.stats reports in
  Alcotest.(check int) "stats: one quarantined" 1 s.Exec.Supervise.quarantined;
  Alcotest.(check int) "stats: one retried" 1 s.Exec.Supervise.retried

let test_aborted_short_circuit () =
  (* An aborted task quarantines immediately: no second round even
     though the attempt count allows it, because the abort is the caller
     cancelling the batch. *)
  let rounds = Atomic.make 0 in
  let aborting ~on_result:_ _f xs =
    Atomic.incr rounds;
    List.mapi
      (fun index _ ->
        Error
          {
            Exec.Pool.index;
            exn = Exec.Pool.Aborted;
            backtrace = Printexc.get_callstack 0;
          })
      xs
  in
  match Exec.Supervise.try_map ~attempts:3 aborting Fun.id [ () ] with
  | [ { Exec.Supervise.status = Exec.Supervise.Quarantined e; attempts } ] ->
      Alcotest.(check bool) "Aborted preserved" true
        (e.Exec.Pool.exn = Exec.Pool.Aborted);
      Alcotest.(check int) "one attempt only" 1 attempts;
      Alcotest.(check int) "runner called exactly once" 1 (Atomic.get rounds)
  | _ -> Alcotest.fail "expected immediate quarantine"

let test_parallel_supervision () =
  (* Supervision must compose with the real pool: retried results come back
     in submission order regardless of which domain re-ran them. *)
  let task, _ = flaky_until 1 in
  let xs = List.init 8 Fun.id in
  let reports = Exec.Supervise.try_map ~attempts:3 (pool 3) task xs in
  Alcotest.(check (list int))
    "submission order preserved under parallel retry"
    (List.map (fun i -> i * 10) xs)
    (List.map get_done reports);
  let s = Exec.Supervise.stats reports in
  Alcotest.(check int) "every task retried once" 8 s.Exec.Supervise.retries

let test_on_result_hook () =
  (* The settle hook fires exactly once per Done task with the original
     batch index — including retried tasks — and never for quarantined
     ones. The in-process runner calls it inside the task, on a pool
     domain, so the recording side is locked. *)
  let seen = ref [] in
  let lock = Mutex.create () in
  let task, _ = flaky_until 1 in
  let mixed i = if i = 2 then raise Fatal else task i in
  let reports =
    Exec.Supervise.try_map ~attempts:2
      ~on_result:(fun i v -> Mutex.protect lock (fun () -> seen := (i, v) :: !seen))
      (pool 2) mixed [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "4 reports" 4 (List.length reports);
  Alcotest.(check (list (pair int int)))
    "hook saw each Done task once, quarantined task never"
    [ (0, 0); (1, 10); (3, 30) ]
    (List.sort compare !seen)

let test_attempts_validation () =
  Alcotest.check_raises "attempts 0 rejected"
    (Invalid_argument "Supervise.try_map: attempts < 1") (fun () ->
      ignore (Exec.Supervise.try_map ~attempts:0 (pool 1) Fun.id [ 1 ]))

let () =
  Alcotest.run "supervise"
    [
      ( "retry",
        [
          Alcotest.test_case "retry until success" `Quick test_retry_until_success;
          Alcotest.test_case "quarantine after exhaustion" `Quick
            test_quarantine_after_exhaustion;
          Alcotest.test_case "Aborted short-circuits" `Quick
            test_aborted_short_circuit;
          Alcotest.test_case "parallel supervision keeps order" `Quick
            test_parallel_supervision;
          Alcotest.test_case "on_result fires once per Done task" `Quick
            test_on_result_hook;
          Alcotest.test_case "attempts validation" `Quick test_attempts_validation;
        ] );
    ]
