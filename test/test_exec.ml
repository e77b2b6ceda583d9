(** The parallel execution engine: submission-order determinism, per-task
    exception isolation, parallel/sequential equivalence of the scenario
    fleet, and the shared outcome cache. *)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                       *)

let test_map_matches_sequential () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int))
    "map ~domains:4 = List.map" (List.map succ xs)
    (Exec.Pool.map ~domains:4 succ xs);
  Alcotest.(check (list int))
    "map ~domains:1 = List.map" (List.map succ xs)
    (Exec.Pool.map ~domains:1 succ xs)

let test_submission_order () =
  (* Later-submitted tasks finish first: task i sleeps (n - i) * 20 ms, so
     with 4 workers the completion order is roughly the reverse of the
     submission order. Results must come back in submission order. *)
  let n = 8 in
  let xs = List.init n Fun.id in
  let results =
    Exec.Pool.try_map ~domains:4
      (fun i ->
        Unix.sleepf (float_of_int (n - i) *. 0.02);
        i)
      xs
  in
  let values = List.map (function Ok v -> v | Error _ -> -1) results in
  Alcotest.(check (list int)) "submission order preserved" xs values

exception Boom of int

let test_exception_isolated () =
  let results =
    Exec.Pool.try_map ~domains:4
      (fun i -> if i = 3 then raise (Boom i) else i * 2)
      (List.init 8 Fun.id)
  in
  List.iteri
    (fun i r ->
      match (i, r) with
      | 3, Error e ->
          Alcotest.(check int) "error carries its index" 3 e.Exec.Pool.index;
          Alcotest.(check bool) "error carries the exception" true (e.Exec.Pool.exn = Boom 3)
      | 3, Ok _ -> Alcotest.fail "task 3 should have failed"
      | i, Ok v -> Alcotest.(check int) (Fmt.str "task %d ok" i) (i * 2) v
      | i, Error _ -> Alcotest.fail (Fmt.str "task %d poisoned" i))
    results

let test_pool_survives_failure () =
  (* A failing batch must not take down the workers: the same resident
     pool runs a clean batch afterwards. *)
  let first =
    Exec.Pool.try_map ~domains:3
      (fun i -> if i mod 2 = 0 then failwith "even" else i)
      (List.init 6 Fun.id)
  in
  Alcotest.(check int) "3 failures reported" 3
    (List.length (List.filter Result.is_error first));
  Alcotest.(check (list int))
    "pool usable after failures"
    [ 0; 10; 20 ]
    (Exec.Pool.map ~domains:3 (fun i -> i * 10) [ 0; 1; 2 ])

let test_pool_resident () =
  (* Every batch of one size runs on the same resident workers: twenty
     batches on three domains see at most three distinct domains, and
     never the caller's (a pool built per batch would show a fresh set
     each time). *)
  let seen = ref [] in
  let lock = Mutex.create () in
  for _ = 1 to 20 do
    ignore
      (Exec.Pool.map ~domains:3
         (fun () ->
           let self = Domain.self () in
           Mutex.protect lock (fun () ->
               if not (List.mem self !seen) then seen := self :: !seen))
         (List.init 6 (fun _ -> ()))
        : unit list)
  done;
  Alcotest.(check bool)
    (Fmt.str "at most 3 worker domains (saw %d)" (List.length !seen))
    true
    (List.length !seen <= 3);
  Alcotest.(check bool) "tasks never ran on the caller" false
    (List.mem (Domain.self ()) !seen)

let test_map_reraises () =
  match Exec.Pool.map ~domains:2 (fun i -> if i = 1 then raise (Boom 1) else i) [ 0; 1 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 1 -> ()

let test_backtrace_preserved () =
  (* The raise site is inside the worker task; the captured backtrace must
     survive the domain boundary instead of being replaced by the re-raise
     site's (empty) one. *)
  let deep i = if i = 0 then raise (Boom 0) else i in
  (match Exec.Pool.try_map ~domains:2 deep [ 0 ] with
  | [ Error e ] ->
      Alcotest.(check bool) "worker backtrace is non-empty" true
        (String.length (Printexc.raw_backtrace_to_string e.Exec.Pool.backtrace) > 0)
  | _ -> Alcotest.fail "expected a single task failure");
  Alcotest.(check bool) "backtrace recording enabled" true (Printexc.backtrace_status ())

let test_reentrant_submission () =
  (* A task submitting to its own pool — a batch of its pool's size — is a
     guaranteed deadlock; it must be refused with [Reentrant_submission]
     — captured as that task's error — while an inner batch of another
     size, on another pool, stays legal. *)
  let results =
    Exec.Pool.try_map ~domains:2
      (fun i ->
        if i = 0 then
          (* would deadlock if accepted *)
          List.length (Exec.Pool.map ~domains:2 Fun.id [ 1; 2; 3 ])
        else i)
      [ 0; 1 ]
  in
  (match results with
  | [ Error e; Ok 1 ] ->
      Alcotest.(check bool) "refused as Reentrant_submission" true
        (e.Exec.Pool.exn = Exec.Pool.Reentrant_submission)
  | _ -> Alcotest.fail "expected task 0 refused, task 1 fine");
  (* the refusal must not poison the pool *)
  Alcotest.(check (list int))
    "pool usable afterwards" [ 0; 2; 4 ]
    (Exec.Pool.map ~domains:2 (fun i -> 2 * i) [ 0; 1; 2 ]);
  (* a nested batch on another pool is not re-entrant *)
  let inner =
    Exec.Pool.map ~domains:2
      (fun i -> List.fold_left ( + ) 0 (Exec.Pool.map ~domains:1 Fun.id [ i; i ]))
      [ 3 ]
  in
  Alcotest.(check (list int)) "different pool allowed" [ 6 ] inner

(* ------------------------------------------------------------------ *)
(* Fleet equivalence: parallel run_all is bit-for-bit the sequential run *)

(* [Defs.t] holds the scripted lead-speed closure, which polymorphic
   equality cannot traverse; compare everything else. *)
let strip (o : Scenarios.Runner.outcome) =
  ( o.Scenarios.Runner.scenario.Scenarios.Defs.number,
    o.Scenarios.Runner.trace,
    o.Scenarios.Runner.results,
    o.Scenarios.Runner.reports,
    o.Scenarios.Runner.collided,
    o.Scenarios.Runner.end_time )

let test_parallel_equals_sequential () =
  let seq = Scenarios.Runner.run_all ~use_cache:false ~domains:1 () in
  let par = Scenarios.Runner.run_all ~use_cache:false ~domains:4 () in
  Alcotest.(check int) "fleet size" (List.length seq) (List.length par);
  List.iter2
    (fun s p ->
      Alcotest.(check bool)
        (Fmt.str "scenario %d identical under 4 domains"
           s.Scenarios.Runner.scenario.Scenarios.Defs.number)
        true
        (strip s = strip p))
    seq par

let test_run_all_threads_options () =
  (* The full option set reaches every scenario of the fleet: a latch-free
     timing removes scenario 1's vehicle-level goal-1 violations (the
     latch ablation result), which the old run_all could not express. *)
  let timing = { Vehicle.Arbiter.default_timing with latch_time = 0.0 } in
  let fleet = Scenarios.Runner.run_all ~domains:2 ~timing () in
  let o1 = List.hd fleet in
  Alcotest.(check int) "scenario 1 first" 1
    o1.Scenarios.Runner.scenario.Scenarios.Defs.number;
  let goal1_violated =
    List.exists
      (fun (r : Vehicle.Monitors.result) ->
        r.Vehicle.Monitors.entry.Vehicle.Monitors.id = "1"
        && r.Vehicle.Monitors.violations <> [])
      o1.Scenarios.Runner.results
  in
  Alcotest.(check bool) "latch-free fleet: goal 1 silent" false goal1_violated;
  (* window threading: a generous window converts scenario 1's goal-2
     false negatives into hits, without re-simulating anything. *)
  let narrow = Scenarios.Runner.run_all ~domains:2 ~window:0.001 () in
  let wide = Scenarios.Runner.run_all ~domains:2 ~window:0.3 () in
  let fn_sum fleet =
    List.fold_left
      (fun acc (o : Scenarios.Runner.outcome) ->
        List.fold_left
          (fun acc (_, (r : Rtmon.Report.t)) -> acc + r.Rtmon.Report.false_negatives)
          acc o.Scenarios.Runner.reports)
      0 fleet
  in
  Alcotest.(check bool) "wider window, fewer false negatives" true
    (fn_sum wide <= fn_sum narrow)

(* ------------------------------------------------------------------ *)
(* Outcome cache                                                        *)

let test_cache_hit_and_counters () =
  Scenarios.Runner.clear_cache ();
  let s0 = Scenarios.Runner.cache_stats () in
  Alcotest.(check int) "cleared: no hits" 0 s0.Exec.Memo.hits;
  Alcotest.(check int) "cleared: no misses" 0 s0.Exec.Memo.misses;
  let cold = Scenarios.Runner.run (Scenarios.Defs.get 1) in
  let s1 = Scenarios.Runner.cache_stats () in
  Alcotest.(check int) "cold run is a miss" 1 s1.Exec.Memo.misses;
  Alcotest.(check int) "cold run is not a hit" 0 s1.Exec.Memo.hits;
  let warm = Scenarios.Runner.run (Scenarios.Defs.get 1) in
  let s2 = Scenarios.Runner.cache_stats () in
  Alcotest.(check int) "warm run is a hit" 1 s2.Exec.Memo.hits;
  Alcotest.(check int) "warm run adds no miss" 1 s2.Exec.Memo.misses;
  Alcotest.(check bool) "warm outcome physically equal" true (cold == warm);
  (* different configuration, different cache line *)
  let repaired = Scenarios.Runner.run ~defects:Vehicle.Defects.repaired (Scenarios.Defs.get 1) in
  Alcotest.(check bool) "repaired outcome is distinct" true (not (repaired == cold));
  let s3 = Scenarios.Runner.cache_stats () in
  Alcotest.(check int) "distinct key is a miss" 2 s3.Exec.Memo.misses

(* ------------------------------------------------------------------ *)
(* Memo capacity bound                                                  *)

let test_memo_capacity () =
  let m : (int, int) Exec.Memo.t = Exec.Memo.create ~capacity:3 () in
  let compute k () = k * 100 in
  List.iter (fun k -> ignore (Exec.Memo.find_or_add m k (compute k))) [ 1; 2; 3 ];
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "under capacity: no evictions" 0 s.Exec.Memo.evictions;
  (* key 4 evicts the oldest entry (key 1, FIFO) *)
  ignore (Exec.Memo.find_or_add m 4 (compute 4));
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "over capacity: one eviction" 1 s.Exec.Memo.evictions;
  ignore (Exec.Memo.find_or_add m 1 (compute 1));
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "evicted key re-misses" 5 s.Exec.Memo.misses;
  (* keys 3 and 4 are still resident *)
  ignore (Exec.Memo.find_or_add m 4 (fun () -> Alcotest.fail "4 was evicted"));
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "resident key hits" 1 s.Exec.Memo.hits;
  Alcotest.(check int) "second eviction for re-adding 1" 2 s.Exec.Memo.evictions

let test_memo_weighted_capacity () =
  (* Capacity bounds the summed weight: here each entry weighs its value. *)
  let m : (int, int) Exec.Memo.t = Exec.Memo.create ~capacity:10 ~weight:Fun.id () in
  let add k = ignore (Exec.Memo.find_or_add m k (fun () -> k)) in
  add 4;
  add 5;
  Alcotest.(check int) "9 of 10: no evictions" 0 (Exec.Memo.stats m).Exec.Memo.evictions;
  (* 4 + 5 + 3 = 12: the oldest (4) goes *)
  add 3;
  Alcotest.(check int) "over the weight: one eviction" 1
    (Exec.Memo.stats m).Exec.Memo.evictions;
  Alcotest.(check int) "5 and 3 stay" 2 (Exec.Memo.length m);
  (* an entry heavier than the capacity evicts every other one and stays *)
  add 20;
  Alcotest.(check int) "5 and 3 evicted" 3 (Exec.Memo.stats m).Exec.Memo.evictions;
  Alcotest.(check int) "the heavy entry stays" 1 (Exec.Memo.length m);
  ignore (Exec.Memo.find_or_add m 20 (fun () -> Alcotest.fail "20 was evicted"));
  (* and the next insertion evicts it *)
  add 1;
  Alcotest.(check int) "heavy entry evicted by the next" 4
    (Exec.Memo.stats m).Exec.Memo.evictions;
  Alcotest.(check int) "only 1 left" 1 (Exec.Memo.length m)

let test_memo_contention () =
  (* N domains hammering one bounded memo: the hit/miss split must add up
     exactly (single-flight turns every concurrent duplicate lookup into
     a hit, never a duplicated miss), the table must respect its capacity
     throughout, and each insert beyond capacity must be an eviction. *)
  let domains = 4 and lookups = 500 and keys = 32 and capacity = 8 in
  let m : (int, int) Exec.Memo.t = Exec.Memo.create ~capacity () in
  let worker seed () =
    let rng = Random.State.make [| seed |] in
    for _ = 1 to lookups do
      let k = Random.State.int rng keys in
      let v = Exec.Memo.find_or_add m k (fun () -> k * 7) in
      assert (v = k * 7);
      assert (Exec.Memo.length m <= capacity)
    done
  in
  let ds = List.init domains (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join ds;
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "every lookup is a hit or a miss"
    (domains * lookups)
    (s.Exec.Memo.hits + s.Exec.Memo.misses);
  Alcotest.(check bool) "misses at least one per resident key" true
    (s.Exec.Memo.misses >= capacity);
  Alcotest.(check int) "length bounded by capacity" capacity (Exec.Memo.length m);
  (* each miss inserts exactly one entry; an eviction removes one *)
  Alcotest.(check int) "misses = evictions + residents"
    s.Exec.Memo.misses
    (s.Exec.Memo.evictions + Exec.Memo.length m)

let test_memo_single_flight () =
  (* Concurrent cold lookups of the same key: exactly one supplier run;
     the racers block until it settles and then count as hits. *)
  let m : (int, int) Exec.Memo.t = Exec.Memo.create () in
  let runs = Atomic.make 0 in
  let supply () =
    Atomic.incr runs;
    Unix.sleepf 0.05;
    42
  in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Exec.Memo.find_or_add m 0 supply))
  in
  let vs = List.map Domain.join ds in
  Alcotest.(check (list int)) "all racers see the value" [ 42; 42; 42; 42 ] vs;
  Alcotest.(check int) "supplier ran once" 1 (Atomic.get runs);
  let s = Exec.Memo.stats m in
  Alcotest.(check int) "one miss" 1 s.Exec.Memo.misses;
  Alcotest.(check int) "three hits" 3 s.Exec.Memo.hits

let test_memo_capacity_invalid () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Memo.create: capacity must be >= 1") (fun () ->
      ignore (Exec.Memo.create ~capacity:0 () : (int, int) Exec.Memo.t))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map = sequential map" `Quick test_map_matches_sequential;
          Alcotest.test_case "submission-order determinism" `Quick test_submission_order;
          Alcotest.test_case "per-task exception capture" `Quick test_exception_isolated;
          Alcotest.test_case "pool survives task failure" `Quick test_pool_survives_failure;
          Alcotest.test_case "pools are resident" `Quick test_pool_resident;
          Alcotest.test_case "map re-raises" `Quick test_map_reraises;
          Alcotest.test_case "worker backtrace preserved" `Quick test_backtrace_preserved;
          Alcotest.test_case "re-entrant submission refused" `Quick
            test_reentrant_submission;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "parallel = sequential (bit-for-bit)" `Slow
            test_parallel_equals_sequential;
          Alcotest.test_case "run_all threads timing/window" `Slow
            test_run_all_threads_options;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit is physically equal; counters move" `Slow
            test_cache_hit_and_counters;
          Alcotest.test_case "capacity bound evicts FIFO" `Quick test_memo_capacity;
          Alcotest.test_case "weighted capacity bounds summed weight" `Quick
            test_memo_weighted_capacity;
          Alcotest.test_case "bounded memo under contention" `Quick
            test_memo_contention;
          Alcotest.test_case "single-flight: one supplier run per key" `Quick
            test_memo_single_flight;
          Alcotest.test_case "capacity must be positive" `Quick
            test_memo_capacity_invalid;
        ] );
    ]
