(** Multi-process sharded batch execution (see shard.mli).

    Coordinator and workers are instances of the same binary: OCaml 5
    forbids [Unix.fork] once any domain has been spawned (permanently, for
    the process), so workers are started with [Unix.create_process_env
    Sys.executable_name] carrying a marker environment variable, and
    {!init} routes the fresh process into [worker_main] before its own
    [main] runs. Closures (the task function and the task values) cross
    the process boundary with [Marshal.Closures], which is sound here
    because both sides run byte-identical code.

    The coordinator owns every piece of orchestration state — pending
    queue, in-flight assignments, restart budgets, results — and
    multiplexes worker pipes with [Unix.select]. Workers are pure
    compute: read an assignment frame, run it (on the worker's resident
    {!Pool} of [domains] domains), write one result frame per task, repeat
    until EOF. *)

exception Worker_failure of { printed : string; trace : string }
exception Worker_crashed of { slot : int }

type havoc = Chaos.fault =
  | Torn_frame
  | Corrupt_frame
  | Hang
  | Crash
  | Slow of float

(* Worker liveness: a worker heartbeats this often while it holds a
   batch, and the coordinator declares a worker hung when a batch is in
   flight and nothing — result or heartbeat — has arrived for
   [hang_timeout_s] (default below). The interval is far below any sane
   timeout, so a healthy-but-slow worker is never killed. *)
let heartbeat_interval_s = 0.2
let default_hang_timeout_s = 30.

(* Spawned workers are recognised by this variable; the argv marker is
   cosmetic but lets tests and operators target workers with pkill. *)
let worker_env = "COMPOSITE_SAFETY_SHARD_WORKER"
let argv_marker = "--exec-shard-worker"
let in_worker () = Sys.getenv_opt worker_env <> None

module Frame = Frame.Make (struct
  let magic = "SHD1"
  let closures = true
end)

(* ------------------------------------------------------------------ *)
(* Protocol messages. Task inputs/outputs travel as [Obj.t] because one
   pipe carries a single ('a, 'b) instantiation fixed by the job that is
   currently bound on it; the coordinator re-types results with [Obj.obj]
   at the only place their type is known.

   [Hello] is sent once per spawn (a worker keeps its domain pool for its
   whole life). [Job] re-binds the task function once per [try_map] call
   per worker incarnation — the only time the closure is marshalled.
   [Batch] then carries many cells per frame; each cell's value is
   {e pre-digested} — marshalled once by the coordinator when the task is
   first dispatched and reused verbatim on requeues — so the per-cell
   frame cost is a string blit, not a closure graph walk. *)

type remote_failure = { printed : string; trace : string }

type coordinator_to_worker =
  | Hello of { slot : int; domains : int }
  | Job of {
      job : int;
      f : Obj.t -> Obj.t;
      havoc : (slot:int -> seq:int -> havoc option) option;
    }
  | Batch of { job : int; seq : int; tasks : (int * string) array }

type worker_to_coordinator =
  | Result of {
      job : int;
      index : int;
      value : (Obj.t, remote_failure) Stdlib.result;
    }
  | Heartbeat of { job : int; slot : int }
      (** sent by a worker's heartbeat domain while it holds a batch;
          proves process liveness, so the coordinator only kills workers
          that are wedged, not merely slow *)

(* ------------------------------------------------------------------ *)
(* Worker side                                                          *)

let run_batch ~domains f job (tasks : (int * string) array) =
  let xs =
    Array.to_list
      (Array.map (fun (_, payload) -> Marshal.from_string payload 0) tasks)
  in
  let results = Pool.try_map ~domains f xs in
  List.map2
    (fun (index, _) r ->
      let value =
        match r with
        | Ok v -> Ok v
        | Error (e : Pool.error) ->
            Error
              {
                printed = Printexc.to_string e.Pool.exn;
                trace = Printexc.raw_backtrace_to_string e.Pool.backtrace;
              }
      in
      Frame.encode (Result { job; index; value }))
    (Array.to_list tasks) results

(* Write the batch's result frames, honouring the frame-level havoc
   cases: a torn frame is a partial write followed by sudden death, a
   corrupt frame a payload bit-flip under an unchanged CRC field. The
   lock serializes against the heartbeat domain so injected heartbeats
   never interleave mid-frame. *)
let write_results fd ~lock ~injected frames =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match injected with
      | Some Torn_frame -> (
          match frames with
          | frame :: _ ->
              let cut =
                Frame.header_len + ((String.length frame - Frame.header_len) / 2)
              in
              Frame.write_all fd (String.sub frame 0 cut);
              Unix._exit 66
          | [] -> ())
      | Some Corrupt_frame -> (
          match frames with
          | frame :: rest ->
              let b = Bytes.of_string frame in
              let i = Frame.header_len in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
              Frame.write_all fd (Bytes.to_string b);
              List.iter (Frame.write_all fd) rest
          | [] -> ())
      | Some (Hang | Crash | Slow _) | None ->
          (* Hang/Crash/Slow are handled before this point; by the time
             frames reach the pipe they are written verbatim. *)
          List.iter (Frame.write_all fd) frames)

let worker_main fd =
  Printexc.record_backtrace true;
  let buf = Frame.create () in
  match Frame.read fd buf with
  | `Frame (Hello { slot; domains }) ->
      (* Batches run on the worker's resident pool of [domains] domains,
         so a warm worker keeps its domains (and any process-lifetime
         caches its tasks populate) across [try_map] calls. *)
      let bound = ref None in
      (* Liveness: while a batch is in progress ([hb_job] >= 0) a
         dedicated domain writes one heartbeat frame per interval, under
         the write lock so heartbeats and result frames never interleave
         mid-frame. A worker wedged wholesale (SIGSTOP, deadlock in a C
         stub) stops heartbeating — OCaml tasks that merely compute for
         a long time do not, because the heartbeat domain is a separate
         OS thread. *)
      let wlock = Mutex.create () in
      let hb_job = Atomic.make (-1) in
      let (_ : unit Domain.t) =
        Domain.spawn (fun () ->
            let rec beat () =
              Unix.sleepf heartbeat_interval_s;
              let job = Atomic.get hb_job in
              if job >= 0 then begin
                match
                  Mutex.lock wlock;
                  Fun.protect
                    ~finally:(fun () -> Mutex.unlock wlock)
                    (fun () -> Frame.write fd (Heartbeat { job; slot }))
                with
                | () -> beat ()
                | exception _ ->
                    (* The pipe is gone: the serve loop will see EOF and
                       exit; nothing left to prove alive to. *)
                    ()
              end
              else beat ()
            in
            beat ())
      in
      let rec serve () =
        match Frame.read fd buf with
        | `Frame (Job { job; f; havoc }) ->
            bound := Some (job, f, havoc);
            serve ()
        | `Frame (Batch { job; seq; tasks }) -> (
            match !bound with
            | Some (bound_job, f, havoc) when bound_job = job -> (
                Atomic.set hb_job job;
                let frames = run_batch ~domains f job tasks in
                let injected =
                  match havoc with Some h -> h ~slot ~seq | None -> None
                in
                match injected with
                | Some Hang ->
                    (* The injected open-pipe hang: stop heartbeating,
                       keep the descriptor open, never respond. Only the
                       coordinator's hang deadline can recover this. *)
                    Atomic.set hb_job (-1);
                    let rec wedge () =
                      Unix.sleepf 3600.;
                      wedge ()
                    in
                    wedge ()
                | Some Crash ->
                    (* Sudden death at the N-th frame, nothing written:
                       the coordinator sees EOF and requeues. *)
                    Unix._exit 67
                | Some (Slow delay) ->
                    (* Slow but healthy: keep heartbeating through the
                       delay, then deliver intact results. Must never be
                       killed by hang detection. *)
                    Unix.sleepf delay;
                    write_results fd ~lock:wlock ~injected:None frames;
                    Atomic.set hb_job (-1);
                    serve ()
                | (Some (Torn_frame | Corrupt_frame) | None) as injected ->
                    write_results fd ~lock:wlock ~injected frames;
                    Atomic.set hb_job (-1);
                    serve ())
            | _ ->
                (* A batch for a job this incarnation was never bound to:
                   protocol violation, die loudly. *)
                Unix._exit 65)
        | `Frame (Hello _) | `Eof | `Corrupt ->
            (* EOF: the coordinator is done with us (or gone). *)
            Unix._exit 0
      in
      serve ()
  | `Frame (Job _ | Batch _) | `Eof | `Corrupt -> Unix._exit 65

let init () =
  if in_worker () then
    (* The socketpair end is this process's stdin. [_exit], never [exit]:
       a worker must not flush channels inherited from the coordinator. *)
    match worker_main Unix.stdin with
    | () -> Unix._exit 0
    | exception _ -> Unix._exit 70

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                     *)

let g_workers = Obs.Metrics.gauge "shard.workers"
let m_respawns = Obs.Metrics.counter "shard.respawns"
let m_frames_sent = Obs.Metrics.counter "shard.frames_sent"
let m_frames_recv = Obs.Metrics.counter "shard.frames_recv"
let m_frames_dropped = Obs.Metrics.counter "shard.frames_dropped"
let m_requeued = Obs.Metrics.counter "shard.cells_requeued"
let m_hangs = Obs.Metrics.counter "shard.hangs_detected"
let m_heartbeats = Obs.Metrics.counter "shard.heartbeats"
let m_spawn_failures = Obs.Metrics.counter "shard.spawn_failures"
let m_fallbacks = Obs.Metrics.counter "shard.fallbacks"
let h_roundtrip = Obs.Metrics.histogram "shard.frame_roundtrip_s"
let h_batch = Obs.Metrics.histogram "shard.batch_size"

type worker = {
  slot : int;
  mutable pid : int;
  mutable fd : Unix.file_descr;
  mutable rbuf : Frame.buf;
  mutable inflight : (int * float) list;  (** task index, assign instant *)
  mutable batch_started : float;
  mutable last_heard : float;
      (** instant of the last byte read from this worker (result or
          heartbeat), or of the dispatch that started the silence *)
  mutable restarts_left : int;
  mutable alive : bool;
  mutable busy_s : float;
}

(* A resident fleet: one warm worker process per slot, spawned on first
   use of its [(coordinator, shards, domains)] key and kept across
   [try_map] calls until {!shutdown_fleets} (or process exit). Worker
   processes carry their domain pools and any process-lifetime caches
   with them, so the spawn + handshake cost is paid once per campaign,
   not once per batch of cells.

   The coordinator is the domain calling [try_map]. A worker serves
   exactly one bound job at a time — two jobs multiplexed onto one fleet
   would clobber each other's binding — so keying fleets by the calling
   domain gives concurrent coordinators (the serve daemon's executor
   lanes) disjoint worker processes by construction. Domain ids are never
   reused, so no domain inherits another's fleet. The registry itself is
   the only state shared across coordinator domains, so it is
   mutex-guarded; everything inside a fleet is owned by its coordinator. *)
type fleet = {
  key : Domain.id * int * int;  (** coordinator, shards, domains *)
  mutable members : worker list;
  mutable next_job : int;
}

let fleets : (Domain.id * int * int, fleet) Hashtbl.t = Hashtbl.create 4
let fleets_lock = Mutex.create ()

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* Tear one worker down on every path — close the pipe fd exactly once,
   then reap the child so no zombie (and no descriptor) outlives the
   slot. All exits funnel through here: normal shutdown, coordinator
   exceptions, and restart-budget exhaustion alike. *)
let dismiss w =
  if w.alive then begin
    w.alive <- false;
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap w.pid
  end

let destroy_fleet fleet =
  List.iter dismiss fleet.members;
  Mutex.protect fleets_lock (fun () -> Hashtbl.remove fleets fleet.key);
  Obs.Metrics.set g_workers 0.

let shutdown_fleets () =
  let all =
    Mutex.protect fleets_lock (fun () ->
        Hashtbl.fold (fun _ fleet acc -> fleet :: acc) fleets [])
  in
  List.iter destroy_fleet all

(* Writes to a freshly dead worker must surface as EPIPE (handled as
   worker death), not kill the coordinator; and resident workers must
   not outlive the coordinator process. Process-wide, set once. *)
let ensure_process_setup =
  lazy
    (if Sys.os_type = "Unix" then
       Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
     at_exit shutdown_fleets)

let spawn_env =
  lazy (Array.append (Unix.environment ()) [| worker_env ^ "=1" |])

(* Spawn (or respawn) a worker into [w]'s slot. The child's stdin is
   its end of the socketpair — bidirectional, so results come back on
   the same descriptor — and its stdout/stderr go to our stderr so
   worker diagnostics cannot corrupt the coordinator's stdout. *)
let spawn ~domains w =
  let ours, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let pid =
    try
      Unix.create_process_env Sys.executable_name
        [| Sys.executable_name; argv_marker; string_of_int w.slot |]
        (Lazy.force spawn_env) theirs Unix.stderr Unix.stderr
    with e ->
      Unix.close ours;
      Unix.close theirs;
      raise e
  in
  Unix.close theirs;
  w.pid <- pid;
  w.fd <- ours;
  w.rbuf <- Frame.create ();
  w.inflight <- [];
  w.last_heard <- Obs.Clock.now ();
  w.alive <- true;
  match Frame.write ours (Hello { slot = w.slot; domains }) with
  | () -> Obs.Metrics.incr m_frames_sent
  | exception Unix.Unix_error _ ->
      (* Died before the handshake; the first write or read on the pipe
         will surface the death and the budgeted respawn path takes over. *)
      ()

(* Guarded spawn: injected ([fault]) and genuine spawn failures alike
   become a dead slot plus a counter, never an exception — the caller
   decides whether the remaining workers (or the in-process fallback)
   carry the job. [attempts] numbers every spawn attempt of one sharded
   run, so an injected [spawn@N] plan is deterministic. *)
let spawn_guarded ~domains ?fault ~attempts w =
  incr attempts;
  let injected =
    match fault with Some h -> h ~attempt:!attempts | None -> false
  in
  if injected then begin
    Obs.Metrics.incr m_spawn_failures;
    false
  end
  else
    match spawn ~domains w with
    | () -> true
    | exception _ ->
        Obs.Metrics.incr m_spawn_failures;
        false

(* The calling domain's fleet of [shards] workers with [domains] domains
   each: created on first use; dead slots (budget exhaustion in an
   earlier job, a kill between jobs, or a spawn failure) are respawned
   here via [spawn_one] without charging any budget — each job starts
   with as full a complement as spawning allows and a fresh restart
   budget.

   The registry lookup (and the one-time process setup) runs under the
   registry lock: concurrent coordinators resolving their fleets must not
   race the Hashtbl, and the lazies must be forced exactly once
   before any unlocked re-read. Respawning the fleet's members happens
   outside the lock — the fleet is owned by its coordinator. *)
let get_fleet ~shards ~domains ~spawn_one =
  let key = (Domain.self (), shards, domains) in
  let fleet =
    Mutex.protect fleets_lock (fun () ->
        Lazy.force ensure_process_setup;
        ignore (Lazy.force spawn_env : string array);
        match Hashtbl.find_opt fleets key with
        | Some fleet -> fleet
        | None ->
            let fleet =
              {
                key;
                members =
                  List.init shards (fun slot ->
                      {
                        slot;
                        pid = -1;
                        fd = Unix.stdin;
                        rbuf = Frame.create ();
                        inflight = [];
                        batch_started = 0.;
                        last_heard = 0.;
                        restarts_left = 0;
                        alive = false;
                        busy_s = 0.;
                      });
                next_job = 0;
              }
            in
            Hashtbl.add fleets key fleet;
            fleet)
  in
  List.iter
    (fun w -> if not w.alive then ignore (spawn_one w : bool))
    fleet.members;
  fleet

let warm ?shards ?(domains = 1) () =
  if in_worker () then
    invalid_arg "Shard.warm: nested sharding inside a shard worker";
  let domains = max 1 domains in
  let shards =
    match shards with
    | Some s -> max 1 s
    | None -> max 1 (Domain.recommended_domain_count () / domains)
  in
  let attempts = ref 0 in
  ignore
    (get_fleet ~shards ~domains ~spawn_one:(spawn_guarded ~domains ~attempts))

let rec take n = function
  | [] -> ([], [])
  | xs when n = 0 -> ([], xs)
  | x :: xs ->
      let chunk, rest = take (n - 1) xs in
      (x :: chunk, rest)

(* The settle hook runs on the coordinator; a hook that raises fails its
   task with that exception, as it would inside an in-process task. *)
let notify on_result index v =
  match Option.iter (fun g -> g index v) on_result with
  | () -> Ok v
  | exception exn ->
      Error { Pool.index; exn; backtrace = Printexc.get_raw_backtrace () }

let try_map (type a b) ?shards ?(domains = 1) ?(restarts = 2)
    ?batch ?on_result ?abort ?havoc ?spawn_fault
    ?(hang_timeout_s = default_hang_timeout_s) ?deadline_s (f : a -> b)
    (xs : a list) : (b, Pool.error) result list =
  if in_worker () then
    invalid_arg "Shard.try_map: nested sharding inside a shard worker";
  let n = List.length xs in
  if n = 0 then []
  else begin
    let domains = max 1 domains in
    let shards =
      match shards with
      | Some s -> max 1 s
      | None -> max 1 (Domain.recommended_domain_count () / domains)
    in
    (* Cells per frame: enough waves per worker (4) to load-balance, but
       never below the worker's own parallelism. *)
    let batch =
      match batch with
      | Some b -> max 1 b
      | None -> max domains ((n + (shards * 4) - 1) / (shards * 4))
    in
    let now () = Obs.Clock.now () in
    let attempts = ref 0 in
    let spawn_one = spawn_guarded ~domains ?fault:spawn_fault ~attempts in
    let fleet = get_fleet ~shards ~domains ~spawn_one in
    if not (List.exists (fun w -> w.alive) fleet.members) then begin
      (* Graceful degradation: not one worker could be spawned, so the
         batch runs in-process on a domain pool instead of dying — same
         settle hook on this coordinator, bit-for-bit the same results. *)
      Obs.Metrics.incr m_fallbacks;
      List.mapi
        (fun i r -> Result.bind r (notify on_result i))
        (Pool.try_map ~domains:(max 1 (shards * domains)) ?abort f xs)
    end
    else begin
      let job = fleet.next_job in
      fleet.next_job <- job + 1;
      (* The task closure is marshalled once per job; each task value once
         per job at first dispatch ([payloads] memoizes it, so a requeue
         after a crash reuses the digested bytes). *)
      let job_frame =
        Frame.encode (Job { job; f = (Obj.magic f : Obj.t -> Obj.t); havoc })
      in
      let tasks = Array.of_list xs in
      let payloads : string option array = Array.make n None in
      let payload i =
        match payloads.(i) with
        | Some s -> s
        | None ->
            let s = Marshal.to_string (Obj.repr tasks.(i)) [ Marshal.Closures ] in
            payloads.(i) <- Some s;
            s
      in
      let results : (b, Pool.error) result option array = Array.make n None in
      let settled = ref 0 in
      let pending = ref (List.init n Fun.id) in
      let batch_seq = ref 0 in
      let live_count () =
        List.fold_left
          (fun acc w -> if w.alive then acc + 1 else acc)
          0 fleet.members
      in
      let sync_gauge () =
        Obs.Metrics.set g_workers (float_of_int (live_count ()))
      in
      let requeue w =
        List.iter
          (fun (i, _) ->
            if results.(i) = None then begin
              Obs.Metrics.incr m_requeued;
              pending := i :: !pending
            end)
          w.inflight;
        w.inflight <- []
      in
      (* Bind this job on a (fresh or respawned) worker. Dead slots —
         spawn failed at job start — are simply skipped; on a dead pipe
         the death path below takes over — budgeted, so the recursion with
         [on_death] terminates. *)
      let rec send_job w =
        if w.alive then
          match Frame.write_all w.fd job_frame with
          | () -> Obs.Metrics.incr m_frames_sent
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
            ->
              on_death w
      (* A worker is dead the moment its pipe reaches EOF, errors, yields
         a corrupt frame, or misses its liveness deadline: close its fd
         and reap it ({!dismiss} — every death path releases the
         descriptor), put its in-flight work back on the queue (crash
         recovery, bounded by the restart budget — not a retry: the task
         still runs once as far as the caller can tell), and respawn into
         the same slot while the budget lasts. A respawn that itself fails
         leaves the slot down; its budget is spent all the same. *)
      and on_death w =
        dismiss w;
        requeue w;
        if w.restarts_left > 0 then begin
          w.restarts_left <- w.restarts_left - 1;
          if spawn_one w then begin
            Obs.Metrics.incr m_respawns;
            send_job w
          end
        end;
        sync_gauge ()
      in
      let publish index r =
        results.(index) <- Some r;
        incr settled
      in
      (* Failures published by the coordinator itself (a remote failure's
         backtrace is the printed [trace]), so the raw backtrace is empty. *)
      let fail index exn =
        publish index (Error { Pool.index; exn; backtrace = Printexc.get_callstack 0 })
      in
      let settle w rjob index (value : (Obj.t, remote_failure) Stdlib.result) =
        Obs.Metrics.incr m_frames_recv;
        if rjob = job then
          match List.assoc_opt index w.inflight with
          | None -> () (* stale frame from a superseded assignment *)
          | Some sent ->
              w.inflight <- List.remove_assoc index w.inflight;
              let t = now () in
              Obs.Metrics.observe h_roundtrip (t -. sent);
              if w.inflight = [] then
                w.busy_s <- w.busy_s +. (t -. w.batch_started);
              if results.(index) = None then
                match value with
                | Ok v -> publish index (notify on_result index (Obj.obj v : b))
                | Error { printed; trace } ->
                    fail index (Worker_failure { printed; trace })
      in
      let refill w =
        if w.alive && w.inflight = [] && !pending <> [] then begin
          let t = now () in
          let chunk, rest = take batch (List.sort compare !pending) in
          pending := rest;
          incr batch_seq;
          Obs.Metrics.observe h_batch (float_of_int (List.length chunk));
          w.batch_started <- t;
          w.last_heard <- t;
          w.inflight <- List.map (fun i -> (i, t)) chunk;
          let tasks = Array.of_list (List.map (fun i -> (i, payload i)) chunk) in
          match Frame.write w.fd (Batch { job; seq = !batch_seq; tasks }) with
          | () -> Obs.Metrics.incr m_frames_sent
          | exception
              Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
            ->
              on_death w
        end
      in
      let drain w =
        let chunk = Bytes.create 65536 in
        match Unix.read w.fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ ->
            Obs.Metrics.incr m_frames_dropped;
            on_death w
        | 0 ->
            (* EOF. Undecoded leftover bytes are a frame torn by the crash. *)
            if Frame.length w.rbuf > 0 then Obs.Metrics.incr m_frames_dropped;
            on_death w
        | nread ->
            (* Any bytes at all prove the process is scheduled: liveness
               resets on results and heartbeats alike. *)
            w.last_heard <- now ();
            Frame.feed w.rbuf chunk nread;
            let rec parse buf =
              (* Stop at a respawn boundary: [on_death] gave the slot a
                 fresh buffer, so only keep decoding the stream this read
                 belongs to. *)
              if w.rbuf == buf then
                match Frame.decode buf with
                | `Need_more -> ()
                | `Corrupt ->
                    (* The stream's framing is gone; nothing after this
                       point can be trusted, so treat the worker as dead. *)
                    Obs.Metrics.incr m_frames_dropped;
                    (try Unix.kill w.pid Sys.sigkill
                     with Unix.Unix_error _ -> ());
                    on_death w
                | `Frame (Result { job = rjob; index; value }) ->
                    settle w rjob index value;
                    parse buf
                | `Frame (Heartbeat _) ->
                    Obs.Metrics.incr m_heartbeats;
                    parse buf
            in
            parse w.rbuf
      in
      let t_start = now () in
      (* Every job starts with the full fleet and a fresh restart budget;
         a worker that exhausts it stays down for the rest of this job
         only. On any coordinator exception the whole fleet is destroyed —
         fds closed, children reaped — before the exception escapes. *)
      List.iter
        (fun w ->
          w.restarts_left <- restarts;
          w.busy_s <- 0.)
        fleet.members;
      let aborting () = match abort with Some stop -> stop () | None -> false in
      (try
         List.iter send_job fleet.members;
         sync_gauge ();
         while !settled < n do
           if aborting () then begin
             (* Cooperative cancellation: the caller withdrew the batch.
                Workers holding cells are killed — their in-flight compute
                is abandoned work, and the slot respawns at the next job's
                [get_fleet] — and everything unsettled fails as
                [Pool.Aborted], which {!Supervise} never retries. *)
             List.iter
               (fun w -> if w.alive && w.inflight <> [] then dismiss w)
               fleet.members;
             sync_gauge ();
             pending := [];
             Array.iteri (fun i r -> if r = None then fail i Pool.Aborted) results
           end
           else begin
             List.iter refill fleet.members;
             let alive = List.filter (fun w -> w.alive) fleet.members in
             if alive = [] then begin
               (* Out of workers and out of restart budget: everything not
                  yet settled fails for this job. *)
               let slot =
                 match fleet.members with w :: _ -> w.slot | [] -> -1
               in
               Array.iteri
                 (fun i r -> if r = None then fail i (Worker_crashed { slot }))
                 results;
               pending := []
             end
             else begin
               let t = now () in
               (* Hang sweep: a worker holding a batch that has been silent
                  past [hang_timeout_s] (no results, no heartbeats — the
                  process is wedged: SIGSTOP, open-pipe hang, C-stub
                  deadlock) or past the optional per-batch [deadline_s]
                  (heartbeating but never finishing — a busy-looping task)
                  is killed and its cells requeued under the restart budget.
                  A merely slow worker heartbeats and is never swept. *)
               List.iter
                 (fun w ->
                   if w.alive && w.inflight <> [] then begin
                     let silent = t -. w.last_heard > hang_timeout_s in
                     let overran =
                       match deadline_s with
                       | Some d -> t -. w.batch_started > d
                       | None -> false
                     in
                     if silent || overran then begin
                       Obs.Metrics.incr m_hangs;
                       on_death w
                     end
                   end)
                 alive;
               let alive = List.filter (fun w -> w.alive) fleet.members in
               if alive <> [] then begin
                 (* Wake for the earliest busy worker's liveness deadline.
                    The timeout is also the abort-probe latency bound, so
                    an idle coordinator still notices a cancellation
                    within a second. *)
                 let wake =
                   List.fold_left
                     (fun acc w ->
                       if w.inflight = [] then acc
                       else
                         let h = w.last_heard +. hang_timeout_s in
                         let h =
                           match deadline_s with
                           | Some d -> Float.min h (w.batch_started +. d)
                           | None -> h
                         in
                         Float.min acc h)
                     Float.infinity alive
                 in
                 let timeout =
                   if wake = Float.infinity then 1.0
                   else Float.max 0.005 (Float.min 1.0 (wake -. t))
                 in
                 match
                   Unix.select (List.map (fun w -> w.fd) alive) [] [] timeout
                 with
                 | readable, _, _ ->
                     List.iter
                       (fun w ->
                         if w.alive && List.mem w.fd readable then drain w)
                       alive
                 | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
               end
             end
           end
         done
       with e ->
         destroy_fleet fleet;
         raise e);
      let wall = now () -. t_start in
      (* Each coordinator sets its own gauges, so concurrent lanes do not
         clobber each other's; the main domain keeps the plain names. *)
      let prefix =
        if Domain.is_main_domain () then "shard."
        else Printf.sprintf "shard.d%d." (Domain.self () :> int)
      in
      List.iter
        (fun w ->
          Obs.Metrics.set
            (Obs.Metrics.gauge (Printf.sprintf "%sworker%d.utilization" prefix w.slot))
            (if wall > 0. then Float.min 1. (w.busy_s /. wall) else 0.))
        fleet.members;
      (* The loop's postcondition — every cell settled — deserves a real
         error, not [Invalid_argument "option is None"]: name the holes. *)
      let unsettled = ref [] in
      Array.iteri
        (fun i r -> if r = None then unsettled := i :: !unsettled)
        results;
      if !unsettled <> [] then
        failwith
          (Printf.sprintf
             "Shard.try_map: coordination loop exited with %d unsettled \
              cell(s) out of %d: indices [%s]"
             (List.length !unsettled) n
             (String.concat "; "
                (List.map string_of_int (List.rev !unsettled))));
      Array.to_list
        (Array.map (function Some r -> r | None -> assert false) results)
    end
  end

let map ?shards ?domains ?restarts ?batch ?havoc ?spawn_fault ?hang_timeout_s
    ?deadline_s f xs =
  List.map
    (function Ok v -> v | Error e -> raise e.Pool.exn)
    (try_map ?shards ?domains ?restarts ?batch ?havoc ?spawn_fault
       ?hang_timeout_s ?deadline_s f xs)
