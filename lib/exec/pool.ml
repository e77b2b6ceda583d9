(* Raw backtraces are only recorded when explicitly enabled; without this,
   the [backtrace] captured in a worker domain and re-raised on the caller
   is empty and the failure's origin is lost across the domain boundary.
   The flag is domain-local in OCaml 5, so besides this process-level
   enable (covering the sequential paths), every spawned worker re-enables
   it for its own domain. *)
let () = Printexc.record_backtrace true

type error = {
  index : int;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
}

exception Reentrant_submission

exception Aborted

type t = {
  size : int;
  mutable leases : (unit -> unit) Queue.t list;
      (** round-robin ring of per-batch job queues: each concurrent
          [try_map] call holds its own lease, and workers take one job
          from the head lease then rotate it to the back — so two batches
          sharing the pool interleave at task granularity instead of the
          second queuing behind the whole first *)
  lock : Mutex.t;
  pending : Condition.t;  (** work enqueued *)
  batch_done : Condition.t;  (** a batch counter reached zero *)
  mutable workers : Domain.id list;  (** fixed before the pool is published *)
}

(* Next job under fair-share: pop from the head lease, then rotate it to
   the tail (unless it emptied, in which case it leaves the ring — its
   batch waiter keeps its own completion state). Called with the pool
   lock held. *)
let rec take_job pool =
  match pool.leases with
  | [] -> None
  | q :: rest -> (
      match Queue.take_opt q with
      | None ->
          pool.leases <- rest;
          take_job pool
      | Some job ->
          pool.leases <- (if Queue.is_empty q then rest else rest @ [ q ]);
          Some job)

let depth pool =
  List.fold_left (fun acc q -> acc + Queue.length q) 0 pool.leases

(* A worker serves its pool until the process exits: pools are resident,
   so there is no exit path. *)
let worker pool =
  Printexc.record_backtrace true;
  let rec loop () =
    Mutex.lock pool.lock;
    let rec next () =
      match take_job pool with
      | Some job -> job
      | None ->
          Condition.wait pool.pending pool.lock;
          next ()
    in
    let job = next () in
    Mutex.unlock pool.lock;
    job ();
    loop ()
  in
  loop ()

(* The resident pools, one per size, spawned on first use and never shut
   down. The table is the only state shared by every caller, so it is
   mutex-guarded; a pool's workers are spawned under that lock, so a pool
   is published with its worker list complete. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_lock = Mutex.create ()

let resident size =
  Mutex.protect pools_lock (fun () ->
      match Hashtbl.find_opt pools size with
      | Some pool -> pool
      | None ->
          let pool =
            {
              size;
              leases = [];
              lock = Mutex.create ();
              pending = Condition.create ();
              batch_done = Condition.create ();
              workers = [];
            }
          in
          pool.workers <-
            List.init size (fun _ ->
                Domain.get_id (Domain.spawn (fun () -> worker pool)));
          Hashtbl.add pools size pool;
          pool)

(* ------------------------------------------------------------------ *)
(* Telemetry. Counter parity between the pooled and sequential paths:
   every task is counted submitted once and completed once when its
   result is published (Ok or Error). [failed] counts the Error subset
   of completed. Wait/run histograms record per-task latency; on the
   sequential path the wait is structurally 0 and the run duration is
   the full task, so completed-only batches report identical counts
   (not timings) in both modes. *)

let m_submitted = Obs.Metrics.counter "pool.tasks_submitted"
let m_completed = Obs.Metrics.counter "pool.tasks_completed"
let m_failed = Obs.Metrics.counter "pool.tasks_failed"
let m_aborted = Obs.Metrics.counter "pool.tasks_aborted"
let m_batches = Obs.Metrics.counter "pool.batches"
let g_queue_depth = Obs.Metrics.gauge "pool.queue_depth"
let g_workers = Obs.Metrics.gauge "pool.workers"
let h_wait = Obs.Metrics.histogram "pool.task_wait_s"
let h_run = Obs.Metrics.histogram "pool.task_run_s"

let count_published = function
  | Ok _ -> Obs.Metrics.incr m_completed
  | Error _ ->
      Obs.Metrics.incr m_completed;
      Obs.Metrics.incr m_failed

let guarded f x ~index =
  match f x with
  | v -> Ok v
  | exception exn -> Error { index; exn; backtrace = Printexc.get_raw_backtrace () }

(* The abort is published from outside the task (it never started), so
   the backtrace is deliberately empty: the most recent recorded one
   belongs to some unrelated earlier raise. *)
let aborted_error ~index =
  Obs.Metrics.incr m_aborted;
  Error { index; exn = Aborted; backtrace = Printexc.get_callstack 0 }

let aborting = function Some stop -> stop () | None -> false

let timed f x ~index =
  let t0 = Obs.Clock.now () in
  let r = guarded f x ~index in
  Obs.Metrics.observe h_run (Obs.Clock.now () -. t0);
  r

let guarded_seq ?abort f x ~index =
  Obs.Metrics.incr m_submitted;
  let r =
    if aborting abort then aborted_error ~index
    else begin
      Obs.Metrics.observe h_wait 0.;
      timed f x ~index
    end
  in
  count_published r;
  r

(* One batch on a resident pool. A worker asking its own pool to run a
   batch would deadlock (every worker may end up blocked on an inner batch
   no free worker can ever start), so a re-entrant submission is refused
   outright; the worker list never changes once the pool is published. *)
let run_batch ?abort pool f xs =
  if List.mem (Domain.self ()) pool.workers then raise Reentrant_submission;
  Obs.Metrics.incr m_batches;
  Obs.Metrics.set g_workers (float_of_int pool.size);
  let n = List.length xs in
  let results = Array.make n None in
  let remaining = ref n in
  let submitted = Obs.Clock.now () in
  (* Called with the pool lock held. *)
  let publish i r =
    results.(i) <- Some r;
    count_published r;
    decr remaining;
    if !remaining = 0 then Condition.broadcast pool.batch_done
  in
  (* This batch's lease: all its jobs queue here, and the lease joins the
     pool's round-robin ring in one step below — a batch is never
     half-visible, and concurrent batches interleave fairly. *)
  let lease = Queue.create () in
  List.iteri
    (fun i x ->
      let job () =
        Mutex.lock pool.lock;
        (* Cooperative cancellation: a task a worker has not yet started
           is published as [Aborted] instead of being run. The [abort]
           probe must be fast and non-blocking (it is called under the
           pool lock) — an [Atomic.get] in practice. Tasks already running
           are never preempted. *)
        let aborted = aborting abort in
        if aborted then publish i (aborted_error ~index:i)
        else Obs.Metrics.observe h_wait (Obs.Clock.now () -. submitted);
        Obs.Metrics.set g_queue_depth (float_of_int (depth pool));
        Mutex.unlock pool.lock;
        if not aborted then begin
          let r = timed f x ~index:i in
          Mutex.lock pool.lock;
          publish i r;
          Mutex.unlock pool.lock
        end
      in
      Obs.Metrics.incr m_submitted;
      Queue.push job lease)
    xs;
  Mutex.lock pool.lock;
  pool.leases <- pool.leases @ [ lease ];
  Obs.Metrics.set g_queue_depth (float_of_int (depth pool));
  Condition.broadcast pool.pending;
  while !remaining > 0 do
    Condition.wait pool.batch_done pool.lock
  done;
  Mutex.unlock pool.lock;
  Array.to_list (Array.map Option.get results)

let try_map ?domains ?abort f xs =
  let size =
    match domains with
    | Some n -> max 1 n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  if size > 1 then run_batch ?abort (resident size) f xs
  else begin
    (* one domain: sequential fallback on the calling domain *)
    Obs.Metrics.incr m_batches;
    Obs.Metrics.set g_workers 1.;
    List.mapi (fun i x -> guarded_seq ?abort f x ~index:i) xs
  end

let map ?domains f xs =
  List.map
    (function
      | Ok v -> v
      | Error e -> Printexc.raise_with_backtrace e.exn e.backtrace)
    (try_map ?domains f xs)
