(** Supervised batch execution: immediate retry around any batch runner
    ({!Pool} domains or {!Shard} processes), quarantining tasks that keep
    failing so one poisoned cell degrades the batch instead of aborting
    it. *)

type 'a status = Done of 'a | Quarantined of Pool.error
type 'a report = { status : 'a status; attempts : int }

(* Telemetry: attempts counts every task execution (first tries and
   retries alike), retries only the extra rounds. *)
let m_attempts = Obs.Metrics.counter "supervise.attempts"
let m_retries = Obs.Metrics.counter "supervise.retries"
let m_quarantined = Obs.Metrics.counter "supervise.quarantined"

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
    batch on [run]; failures survive to the next round while attempts
    remain, everything else settles. The runner sees round-local
    positions, so both the settle hook's index and [Pool.error.index]
    are mapped back to the task's position in the original batch. *)
let try_map ?(attempts = 1) ?on_result (run : ('a, 'b) runner) f xs =
  if attempts < 1 then invalid_arg "Supervise.try_map: attempts < 1";
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
                    would resurrect work the caller just asked to stop. *)
                 let aborted =
                   match e.Pool.exn with Pool.Aborted -> true | _ -> false
                 in
                 if attempt < attempts && not aborted then [ (i, x) ]
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
    if failed <> [] then go (attempt + 1) failed
  in
  if n > 0 then go 1 (List.mapi (fun i x -> (i, x)) xs);
  Array.to_list (Array.map Option.get reports)
