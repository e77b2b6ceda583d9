(** Supervised batch execution: retry with backoff, quarantine, attempt
    accounting, and the deterministic backoff schedule. *)

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

(* Fast policy so retry tests don't sleep noticeably. *)
let fast ?(max_attempts = 3) ?retry_on () =
  Exec.Supervise.policy ~max_attempts ~base_delay_s:0.001 ~max_delay_s:0.002
    ?retry_on ()

(* The in-process runner on [domains] domains. *)
let pool domains = Exec.Supervise.in_process ~domains ()

let get_done (r : _ Exec.Supervise.report) =
  match r.Exec.Supervise.status with
  | Exec.Supervise.Done v -> v
  | Exec.Supervise.Quarantined _ -> Alcotest.fail "unexpected quarantine"

let test_retry_until_success () =
  let task, attempts_of = flaky_until 2 in
  let reports =
    Exec.Supervise.try_map ~policy:(fast ()) (pool 1) task [ 0; 1; 2 ]
  in
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
  let reports =
    Exec.Supervise.try_map ~policy:(fast ~max_attempts:2 ()) (pool 1) mixed
      [ 0; 1; 2 ]
  in
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
      Alcotest.(check int) "quarantined after max_attempts" 2
        b.Exec.Supervise.attempts;
      Alcotest.(check int) "2 attempts actually made" 2 (attempts_of 1)
  | _ -> Alcotest.fail "unexpected batch shape");
  let s = Exec.Supervise.stats reports in
  Alcotest.(check int) "stats: one quarantined" 1 s.Exec.Supervise.quarantined;
  Alcotest.(check int) "stats: one retried" 1 s.Exec.Supervise.retried

let test_retry_on_short_circuit () =
  (* A failure the policy rejects quarantines immediately: no second
     attempt even though max_attempts allows it. *)
  let runs = Atomic.make 0 in
  let task () =
    Atomic.incr runs;
    raise Fatal
  in
  let policy = fast ~retry_on:(function Flaky _ -> true | _ -> false) () in
  match Exec.Supervise.try_map ~policy (pool 1) task [ () ] with
  | [ { Exec.Supervise.status = Exec.Supervise.Quarantined e; attempts } ] ->
      Alcotest.(check bool) "Fatal preserved" true (e.Exec.Pool.exn = Fatal);
      Alcotest.(check int) "one attempt only" 1 attempts;
      Alcotest.(check int) "task ran exactly once" 1 (Atomic.get runs)
  | _ -> Alcotest.fail "expected immediate quarantine"

let test_parallel_supervision () =
  (* Supervision must compose with the real pool: retried results come back
     in submission order regardless of which domain re-ran them. *)
  let task, _ = flaky_until 1 in
  let xs = List.init 8 Fun.id in
  let reports =
    Exec.Supervise.try_map ~policy:(fast ()) (pool 3) task xs
  in
  Alcotest.(check (list int))
    "submission order preserved under parallel retry"
    (List.map (fun i -> i * 10) xs)
    (List.map get_done reports);
  let s = Exec.Supervise.stats reports in
  Alcotest.(check int) "every task retried once" 8 s.Exec.Supervise.retries

let test_backoff_schedule () =
  let p =
    Exec.Supervise.policy ~base_delay_s:0.05 ~max_delay_s:0.4 ~jitter:0.25
      ~seed:7 ()
  in
  (* Deterministic: same policy, same attempt, same delay. *)
  List.iter
    (fun a ->
      Alcotest.(check (float 0.))
        (Fmt.str "attempt %d deterministic" a)
        (Exec.Supervise.backoff_delay p ~attempt:a)
        (Exec.Supervise.backoff_delay p ~attempt:a))
    [ 1; 2; 3; 4; 5 ];
  (* Each delay lands inside the jittered envelope of the capped
     exponential. *)
  List.iter
    (fun a ->
      let nominal = Float.min 0.4 (0.05 *. (2. ** float_of_int (a - 1))) in
      let d = Exec.Supervise.backoff_delay p ~attempt:a in
      Alcotest.(check bool)
        (Fmt.str "attempt %d within envelope" a)
        true
        (d >= 0.75 *. nominal -. 1e-9 && d <= 1.25 *. nominal +. 1e-9))
    [ 1; 2; 3; 4; 5; 6 ];
  (* A different seed jitters differently (overwhelmingly likely for at
     least one of the first five attempts). *)
  let q = { p with Exec.Supervise.seed = 8 } in
  Alcotest.(check bool) "seed changes the schedule" true
    (List.exists
       (fun a ->
         Exec.Supervise.backoff_delay p ~attempt:a
         <> Exec.Supervise.backoff_delay q ~attempt:a)
       [ 1; 2; 3; 4; 5 ]);
  (* Jitter-free policies are exactly the capped exponential. *)
  let exact = Exec.Supervise.policy ~base_delay_s:0.1 ~max_delay_s:0.3 ~jitter:0. () in
  Alcotest.(check (float 1e-9)) "2^0 base" 0.1
    (Exec.Supervise.backoff_delay exact ~attempt:1);
  Alcotest.(check (float 1e-9)) "doubled" 0.2
    (Exec.Supervise.backoff_delay exact ~attempt:2);
  Alcotest.(check (float 1e-9)) "capped" 0.3
    (Exec.Supervise.backoff_delay exact ~attempt:3);
  Alcotest.(check (float 1e-9)) "stays capped" 0.3
    (Exec.Supervise.backoff_delay exact ~attempt:9)

let test_zero_delay_fast_path () =
  (* A zero-delay policy must neither sleep nor record backoff samples:
     shard crash-recovery tests lean on this to retry without wall-clock
     waits. The histogram count is the deterministic witness — a slept
     delay is always observed, a skipped one never is. *)
  let h = Obs.Metrics.histogram "supervise.backoff_s" in
  let count0 = (Obs.Metrics.summary h).Obs.Metrics.count in
  let policy =
    Exec.Supervise.policy ~max_attempts:3 ~base_delay_s:0. ~jitter:0. ()
  in
  Alcotest.(check (float 0.))
    "zero base delay means zero backoff" 0.
    (Exec.Supervise.backoff_delay policy ~attempt:5);
  let task, attempts_of = flaky_until 2 in
  let t0 = Obs.Clock.now () in
  let reports = Exec.Supervise.try_map ~policy (pool 1) task [ 0 ] in
  let elapsed = Obs.Clock.now () -. t0 in
  Alcotest.(check (list int)) "retries still happen" [ 0 ]
    (List.map get_done reports);
  Alcotest.(check int) "3 attempts made" 3 (attempts_of 0);
  Alcotest.(check int) "no backoff samples recorded" count0
    (Obs.Metrics.summary h).Obs.Metrics.count;
  (* Generous sanity bound: two skipped sleeps of the 50 ms default would
     already exceed this on their own. *)
  Alcotest.(check bool) "no wall-clock sleep" true (elapsed < 0.05)

let test_on_result_hook () =
  (* The settle hook fires exactly once per Done task with the original
     batch index — including retried tasks — and never for quarantined
     ones. The in-process runner calls it inside the task, on a pool
     domain, so the recording side is locked. *)
  let seen = ref [] in
  let lock = Mutex.create () in
  let task, _ = flaky_until 1 in
  let mixed i = if i = 2 then raise Fatal else task i in
  let policy =
    fast ~max_attempts:2 ~retry_on:(function Flaky _ -> true | _ -> false) ()
  in
  let reports =
    Exec.Supervise.try_map ~policy
      ~on_result:(fun i v -> Mutex.protect lock (fun () -> seen := (i, v) :: !seen))
      (pool 2) mixed [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "4 reports" 4 (List.length reports);
  Alcotest.(check (list (pair int int)))
    "hook saw each Done task once, quarantined task never"
    [ (0, 0); (1, 10); (3, 30) ]
    (List.sort compare !seen)

let test_default_policy_rejects_reentrancy () =
  Alcotest.(check bool) "Reentrant_submission is not retryable" false
    (Exec.Supervise.default_policy.Exec.Supervise.retry_on
       Exec.Pool.Reentrant_submission);
  Alcotest.(check bool) "ordinary failures are retryable" true
    (Exec.Supervise.default_policy.Exec.Supervise.retry_on Fatal)

let test_policy_validation () =
  Alcotest.check_raises "max_attempts 0 rejected"
    (Invalid_argument "Supervise.policy: max_attempts < 1") (fun () ->
      ignore (Exec.Supervise.policy ~max_attempts:0 ()));
  Alcotest.check_raises "jitter > 1 rejected"
    (Invalid_argument "Supervise.policy: jitter outside [0, 1]") (fun () ->
      ignore (Exec.Supervise.policy ~jitter:1.5 ()))

let () =
  Alcotest.run "supervise"
    [
      ( "retry",
        [
          Alcotest.test_case "retry until success" `Quick test_retry_until_success;
          Alcotest.test_case "quarantine after exhaustion" `Quick
            test_quarantine_after_exhaustion;
          Alcotest.test_case "retry_on short-circuits" `Quick
            test_retry_on_short_circuit;
          Alcotest.test_case "parallel supervision keeps order" `Quick
            test_parallel_supervision;
          Alcotest.test_case "on_result fires once per Done task" `Quick
            test_on_result_hook;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic capped jittered schedule" `Quick
            test_backoff_schedule;
          Alcotest.test_case "zero-delay fast path skips sleep and sample"
            `Quick test_zero_delay_fast_path;
          Alcotest.test_case "default policy refuses re-entrancy" `Quick
            test_default_policy_rejects_reentrancy;
          Alcotest.test_case "policy validation" `Quick test_policy_validation;
        ] );
    ]
