(** Supervised batch execution: retry with jittered exponential backoff
    around any batch runner ({!Pool} domains or {!Shard} processes),
    quarantining tasks that keep failing so one poisoned cell degrades
    the batch instead of aborting it. *)

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  jitter : float;
  seed : int;
  retry_on : exn -> bool;
}

let default_policy =
  {
    max_attempts = 3;
    base_delay_s = 0.05;
    max_delay_s = 1.0;
    jitter = 0.25;
    seed = 0;
    retry_on = (function Pool.Reentrant_submission -> false | _ -> true);
  }

let policy ?(max_attempts = default_policy.max_attempts)
    ?(base_delay_s = default_policy.base_delay_s)
    ?(max_delay_s = default_policy.max_delay_s)
    ?(jitter = default_policy.jitter) ?(seed = default_policy.seed)
    ?(retry_on = default_policy.retry_on) () =
  if max_attempts < 1 then invalid_arg "Supervise.policy: max_attempts < 1";
  if jitter < 0. || jitter > 1. then
    invalid_arg "Supervise.policy: jitter outside [0, 1]";
  { max_attempts; base_delay_s; max_delay_s; jitter; seed; retry_on }

let backoff_delay p ~attempt =
  let expo =
    Float.min p.max_delay_s
      (p.base_delay_s *. Float.pow 2. (float_of_int (attempt - 1)))
  in
  (* One private generator per attempt, derived from the policy seed: the
     schedule is a pure function of (seed, attempt), never of how many
     draws earlier rounds consumed. *)
  let u = Inject.Prng.float (Inject.Prng.create (Inject.Prng.derive p.seed attempt)) in
  Float.max 0. (expo *. (1. +. (p.jitter *. ((2. *. u) -. 1.))))

type 'a status = Done of 'a | Quarantined of Pool.error
type 'a report = { status : 'a status; attempts : int }

(* Telemetry: attempts counts every task execution (first tries and
   retries alike), retries only the extra rounds, and backoff_s records
   each inter-round sleep actually performed. *)
let m_attempts = Obs.Metrics.counter "supervise.attempts"
let m_retries = Obs.Metrics.counter "supervise.retries"
let m_quarantined = Obs.Metrics.counter "supervise.quarantined"
let h_backoff = Obs.Metrics.histogram "supervise.backoff_s"

type stats = { tasks : int; retried : int; retries : int; quarantined : int }

let stats reports =
  List.fold_left
    (fun acc r ->
      {
        tasks = acc.tasks + 1;
        retried = (acc.retried + if r.attempts > 1 then 1 else 0);
        retries = acc.retries + r.attempts - 1;
        quarantined =
          (acc.quarantined
          + match r.status with Quarantined _ -> 1 | Done _ -> 0);
      })
    { tasks = 0; retried = 0; retries = 0; quarantined = 0 }
    reports

type ('a, 'b) runner =
  on_result:(int -> 'b -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, Pool.error) result list

(* The hook runs inside the task, on whichever domain ran it, so a hook
   that raises fails its task exactly as the task raising would. *)
let in_process ?domains ?abort () ~on_result f xs =
  Pool.try_map ?domains ?abort
    (fun (i, x) ->
      let v = f x in
      on_result i v;
      v)
    (List.mapi (fun i x -> (i, x)) xs)

(** The supervision loop. Each round runs the still-pending tasks as one
    batch on [run]; failures the policy deems retryable survive to the
    next round, everything else settles. The runner sees round-local
    positions, so both the settle hook's index and [Pool.error.index]
    are mapped back to the task's position in the original batch. *)
let try_map ?(policy = default_policy) ?on_result (run : ('a, 'b) runner) f xs
    =
  let n = List.length xs in
  let reports = Array.make n None in
  let rec go attempt pending =
    Obs.Metrics.incr ~by:(List.length pending) m_attempts;
    if attempt > 1 then Obs.Metrics.incr ~by:(List.length pending) m_retries;
    let origin = Array.of_list (List.map fst pending) in
    let on_result =
      match on_result with
      | Some g -> fun j v -> g origin.(j) v
      | None -> fun _ _ -> ()
    in
    let results = run ~on_result f (List.map snd pending) in
    let failed =
      List.concat
        (List.map2
           (fun (i, x) r ->
             match r with
             | Ok v ->
                 reports.(i) <- Some { status = Done v; attempts = attempt };
                 []
             | Error (e : Pool.error) ->
                 (* [Aborted] is the caller cancelling the batch — a retry
                    would resurrect work the caller just asked to stop, so
                    it quarantines regardless of the policy. *)
                 let retryable =
                   match e.Pool.exn with
                   | Pool.Aborted -> false
                   | exn -> policy.retry_on exn
                 in
                 if attempt < policy.max_attempts && retryable then [ (i, x) ]
                 else begin
                   Obs.Metrics.incr m_quarantined;
                   reports.(i) <-
                     Some
                       {
                         status = Quarantined { e with Pool.index = i };
                         attempts = attempt;
                       };
                   []
                 end)
           pending results)
    in
    if failed <> [] then begin
      let delay = backoff_delay policy ~attempt in
      (* Zero-delay fast path: a policy with [base_delay_s = 0.] retries
         immediately. Skipping the sleep *and* the histogram sample keeps
         crash-recovery tests free of wall-clock waits without recording
         sleeps that never happened. *)
      if delay > 0. then begin
        Obs.Metrics.observe h_backoff delay;
        Unix.sleepf delay
      end;
      go (attempt + 1) failed
    end
  in
  if n > 0 then go 1 (List.mapi (fun i x -> (i, x)) xs);
  Array.to_list (Array.map Option.get reports)
