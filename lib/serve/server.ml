(** The campaign service daemon (see server.mli for the robustness
    model).

    Concurrency shape: the main thread owns every socket and every piece
    of request state, multiplexed through one [Unix.select] loop;
    [concurrent] executor {e lanes} (domains) each run one campaign at a
    time, on their own resident worker fleet (fleets are keyed by the
    coordinating domain) or on the shared resident domain pool, with the
    shared outcome cache resident between campaigns. Lanes and main loop
    meet through three structures guarded by one mutex — the backlog,
    the done queue and the [running] list — plus per-request atomics
    ([abort], [progress]) that the campaign machinery reads without any
    lock. A lane picks the {e smallest} queued grid first (ties by
    ticket), so a 1-cell campaign submitted behind a hundred-cell one
    starts on the next free lane instead of head-of-line blocking.
    Executors never touch a socket; the main loop never simulates. *)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

let m_connections = Obs.Metrics.counter "serve.connections"
let m_disconnects = Obs.Metrics.counter "serve.disconnects"
let m_submitted = Obs.Metrics.counter "serve.requests_submitted"
let m_completed = Obs.Metrics.counter "serve.requests_completed"
let m_failed = Obs.Metrics.counter "serve.requests_failed"
let m_checkpointed = Obs.Metrics.counter "serve.requests_checkpointed"
let m_rejections = Obs.Metrics.counter "serve.rejections"
let m_rej_queue = Obs.Metrics.counter "serve.rejections_queue_full"
let m_rej_quota = Obs.Metrics.counter "serve.rejections_quota"
let m_rej_drain = Obs.Metrics.counter "serve.rejections_draining"
let m_rej_spec = Obs.Metrics.counter "serve.rejections_bad_spec"
let m_deadline_kills = Obs.Metrics.counter "serve.deadline_kills"
let m_cancelled = Obs.Metrics.counter "serve.cancelled"
let m_orphaned = Obs.Metrics.counter "serve.orphaned"
let m_recovered = Obs.Metrics.counter "serve.recovered"
let m_store_hits = Obs.Metrics.counter "serve.store_hits"
let m_store_evictions = Obs.Metrics.counter "serve.store_evictions"
let m_slot_leases = Obs.Metrics.counter "serve.slot_leases"
let m_chaos_drops = Obs.Metrics.counter "serve.chaos_drops"
let m_stalled = Obs.Metrics.counter "serve.stalled_clients"
let g_queue_depth = Obs.Metrics.gauge "serve.queue_depth"
let g_concurrent = Obs.Metrics.gauge "serve.concurrent"
let g_store_bytes = Obs.Metrics.gauge "serve.store_bytes"
let g_active_clients = Obs.Metrics.gauge "serve.active_clients"
let g_degraded = Obs.Metrics.gauge "serve.degraded"
let g_draining = Obs.Metrics.gauge "serve.draining"
let h_queue_wait = Obs.Metrics.histogram "serve.queue_wait_s"
let h_run = Obs.Metrics.histogram "serve.request_run_s"
let h_drain = Obs.Metrics.histogram "serve.drain_s"

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)

type config = {
  socket : string;
  tcp_port : int option;
  state_dir : string;
  queue_bound : int;
  quota : int;
  concurrent : int;
  store_budget_bytes : int;
  default_deadline_s : float option;
  stall_timeout_s : float;
  retry_after_s : float;
  domains : int option;
  shards : int option;
  chaos : Exec.Chaos.t option;
  metrics_path : string option;
}

let default_config ~socket ~state_dir =
  {
    socket;
    tcp_port = None;
    state_dir;
    queue_bound = 8;
    quota = 4;
    concurrent = 1;
    store_budget_bytes = 64 * 1024 * 1024;
    default_deadline_s = None;
    stall_timeout_s = 10.;
    retry_after_s = 1.;
    domains = None;
    shards = None;
    chaos = None;
    metrics_path = None;
  }

(* The admission journal record: [Pending] is written before a request
   is acknowledged, [Settled] when its outcome no longer needs a future
   incarnation (completed, crashed, or deliberately abandoned). A
   checkpointed request keeps its [Pending] — that is the durable to-do
   the next incarnation recovers. *)
type admission = Pending of Wire.spec | Settled

type client = {
  cfd : Unix.file_descr;
  rbuf : Wire.Frame.buf;
  outq : string Queue.t;  (** encoded frames awaiting the socket *)
  mutable out_off : int;  (** bytes of the head frame already written *)
  mutable greeted : bool;
  mutable live : int;  (** requests this client is waiting on (quota) *)
  mutable last_drained : float;  (** last write progress (slowloris) *)
  mutable open_ : bool;
}

type outcome =
  | Completed of { csv : string; durable : bool }
  | Checkpointed  (** aborted at a cell boundary; journal holds the rest *)
  | Crashed of string

type req = {
  ticket : int;
  digest : string;  (** canonical spec digest: dedup / journal / store key *)
  spec : Wire.spec;
  grid : Scenarios.Campaign.grid;
  total : int;
  deadline : float option;  (** absolute, [Obs.Clock.now] timebase *)
  submitted_at : float;
  abort : bool Atomic.t;  (** cooperative-cancel probe for the campaign *)
  progress : int Atomic.t;  (** cells settled so far (journal + run) *)
  mutable sent_progress : int;
  mutable state : [ `Queued | `Running | `Settled ];
  mutable kill : [ `Deadline | `Cancelled | `Orphaned ] option;
  mutable waiters : client list;
}

type t = {
  cfg : config;
  m : Mutex.t;
  work_c : Condition.t;
  mutable backlog : req list;
      (** admitted, not yet running; lanes pick smallest-grid-first *)
  done_q : (req * outcome) Queue.t;
  stop : bool Atomic.t;  (** executor shutdown + global abort probe *)
  drain_rq : bool Atomic.t;  (** set by the SIGTERM/SIGINT handler *)
  admissions : admission Scenarios.Journal.writer;
  fault : ([ `Accept | `Read | `Write ] -> bool) option;
  live : (string, req) Hashtbl.t;  (** digest -> unsettled request *)
  mutable draining : bool;
  mutable degraded : bool;
  mutable running : req list;  (** one entry per busy executor lane *)
  mutable clients : client list;
  mutable next_ticket : int;
  mutable settled : int;
  mutable checkpointed : int;
  mutable drain_t0 : float;
}

let admissions_path cfg = Filename.concat cfg.state_dir "admissions.jnl"

let cells_path cfg digest =
  Filename.concat cfg.state_dir ("cells-" ^ digest ^ ".jnl")

let results_dir cfg = Filename.concat cfg.state_dir "results"
let result_path cfg digest = Filename.concat (results_dir cfg) (digest ^ ".csv")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Spec resolution                                                     *)

(* The wire spec carries faults as grammar strings and scenarios as
   numbers; resolving them against this server's catalogue is also the
   validation step — anything unparsable is a [Bad_spec] rejection, not
   a request that fails later. *)
let resolve_spec (spec : Wire.spec) =
  try
    let faults =
      match spec.Wire.faults with
      | [] -> (Scenarios.Campaign.smoke ~seed:spec.Wire.seed ()).faults
      | l ->
          List.map
            (fun str ->
              match Inject.Spec.parse str with
              | Ok f -> f
              | Error e -> failwith (Fmt.str "fault %S: %s" str e))
            l
    in
    let scenarios =
      List.map
        (fun n ->
          match Scenarios.Defs.get n with
          | s -> s
          | exception Not_found -> failwith (Fmt.str "unknown scenario %d" n))
        spec.Wire.scenarios
    in
    if scenarios = [] then failwith "empty scenario list";
    Ok { Scenarios.Campaign.seed = spec.Wire.seed; faults; grid_scenarios = scenarios }
  with Failure e -> Error e

(* Requests are deduplicated, journaled and stored under the digest of
   the {e resolved} spec — the canonical fault strings and scenario
   numbers — so two clients writing the same grid differently still
   share one execution. [retries] stays out: it cannot change a
   deterministic result, only how hard the server tries to get it. *)
let digest_of ~(spec : Wire.spec) (grid : Scenarios.Campaign.grid) =
  Exec.Memo.digest
    ( grid.Scenarios.Campaign.seed,
      List.map Inject.Fault.to_string grid.Scenarios.Campaign.faults,
      List.map
        (fun (d : Scenarios.Defs.t) -> d.Scenarios.Defs.number)
        grid.Scenarios.Campaign.grid_scenarios,
      spec.Wire.window )

(* ------------------------------------------------------------------ *)
(* State helpers (all called with [s.m] held)                          *)

let queued_depth s =
  List.fold_left
    (fun n (r : req) -> if r.state = `Queued then n + 1 else n)
    0 s.backlog

let in_flight s = queued_depth s + List.length s.running

let sync_gauges s =
  Obs.Metrics.set g_queue_depth (float_of_int (in_flight s));
  Obs.Metrics.set g_active_clients (float_of_int (List.length s.clients))

let degrade s =
  if not s.degraded then begin
    s.degraded <- true;
    Obs.Metrics.set g_degraded 1.
  end

let journal_settled s digest =
  Scenarios.Journal.append s.admissions ~key:digest Settled;
  if Scenarios.Journal.degraded s.admissions then degrade s

let kill_reason = function
  | `Deadline -> "deadline exceeded"
  | `Cancelled -> "cancelled"
  | `Orphaned -> "abandoned: every waiting client disconnected"

let attach c (r : req) =
  if not (List.memq c r.waiters) then begin
    r.waiters <- c :: r.waiters;
    c.live <- c.live + 1
  end

(* close_client / kill_req / settle / send / flush_out are mutually
   recursive: settling notifies waiters (send), a failed send closes the
   client, and a closed client orphans — kills — its now-waiterless
   requests. The recursion bottoms out because each path flips a
   one-way flag ([open_], [`Settled]) before recursing. *)

let rec close_client s c =
  if c.open_ then begin
    c.open_ <- false;
    (try Unix.close c.cfd with Unix.Unix_error _ -> ());
    s.clients <- List.filter (fun c' -> c' != c) s.clients;
    Obs.Metrics.incr m_disconnects;
    Obs.Metrics.set g_active_clients (float_of_int (List.length s.clients));
    (* Disconnect detection: a request nobody is waiting on anymore is
       abandoned — queued work is dropped, running work cooperatively
       aborted — so a vanished client cannot pin the executor. *)
    let orphans =
      Hashtbl.fold
        (fun _ (r : req) acc -> if List.memq c r.waiters then r :: acc else acc)
        s.live []
    in
    List.iter
      (fun (r : req) ->
        r.waiters <- List.filter (fun w -> w != c) r.waiters;
        if r.waiters = [] && r.state <> `Settled && r.kill = None then
          kill_req s r ~kill:`Orphaned)
      orphans
  end

and kill_req s (r : req) ~kill =
  if r.state <> `Settled then begin
    (match kill with
    | `Deadline -> Obs.Metrics.incr m_deadline_kills
    | `Cancelled -> Obs.Metrics.incr m_cancelled
    | `Orphaned -> Obs.Metrics.incr m_orphaned);
    r.kill <- Some kill;
    match r.state with
    | `Running ->
        (* Cooperative: the campaign sees the probe at the next cell
           boundary, raises [Exec.Pool.Aborted], and the executor
           settles it as [Checkpointed] — cells are reclaimed, the
           fleet stays warm. *)
        Atomic.set r.abort true
    | `Queued | `Settled -> settle s r Checkpointed
  end

and settle s (r : req) (outcome : outcome) =
  if r.state <> `Settled then begin
    r.state <- `Settled;
    (match Hashtbl.find_opt s.live r.digest with
    | Some r' when r' == r -> Hashtbl.remove s.live r.digest
    | _ -> ());
    (* Durability: a drain checkpoint keeps its [Pending] record — that
       is the hand-off to the next incarnation. Every other outcome
       (completed, crashed, deliberately killed) retires it. *)
    let keep_pending =
      match outcome with Checkpointed -> r.kill = None | _ -> false
    in
    if not keep_pending then journal_settled s r.digest;
    let resp =
      match outcome with
      | Completed { csv; durable } ->
          Obs.Metrics.incr m_completed;
          s.settled <- s.settled + 1;
          Wire.Result
            { ticket = r.ticket; csv; durable = durable && not s.degraded }
      | Checkpointed ->
          let reason =
            match r.kill with
            | None ->
                s.checkpointed <- s.checkpointed + 1;
                Obs.Metrics.incr m_checkpointed;
                "checkpointed for drain; resubmit after restart to resume"
            | Some k ->
                Obs.Metrics.incr m_failed;
                kill_reason k
          in
          Wire.Failed { ticket = r.ticket; reason }
      | Crashed reason ->
          Obs.Metrics.incr m_failed;
          Wire.Failed { ticket = r.ticket; reason }
    in
    let waiters = r.waiters in
    r.waiters <- [];
    List.iter
      (fun (c : client) ->
        c.live <- c.live - 1;
        send s c resp)
      waiters;
    sync_gauges s
  end

and send s c resp =
  if c.open_ then begin
    let drop = match s.fault with Some f -> f `Write | None -> false in
    if drop then begin
      (* Chaos write fault: the reply is lost with the connection, as if
         the wire died mid-frame. The client reconnects and resubmits;
         the journal and result store make that idempotent. *)
      Obs.Metrics.incr m_chaos_drops;
      close_client s c
    end
    else begin
      Queue.push (Wire.Frame.encode resp) c.outq;
      flush_out s c
    end
  end

and flush_out s c =
  if c.open_ then
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some chunk -> (
        let len = String.length chunk - c.out_off in
        match Unix.write c.cfd (Bytes.unsafe_of_string chunk) c.out_off len with
        | n ->
            c.last_drained <- Obs.Clock.now ();
            if n = len then begin
              ignore (Queue.pop c.outq);
              c.out_off <- 0;
              flush_out s c
            end
            else c.out_off <- c.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out s c
        | exception Unix.Unix_error (_, _, _) -> close_client s c)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let reject s c reason =
  Obs.Metrics.incr m_rejections;
  (match reason with
  | Wire.Queue_full -> Obs.Metrics.incr m_rej_queue
  | Wire.Over_quota -> Obs.Metrics.incr m_rej_quota
  | Wire.Draining -> Obs.Metrics.incr m_rej_drain
  | Wire.Bad_spec _ -> Obs.Metrics.incr m_rej_spec);
  let retryable =
    match reason with
    | Wire.Queue_full | Wire.Over_quota -> true
    | Wire.Draining | Wire.Bad_spec _ -> false
  in
  (* The hint scales with load: an empty daemon says the configured
     base, one at its queue bound says double it, so a saturated daemon
     spreads its herd of retriers instead of synchronizing them. *)
  let retry_after_s =
    s.cfg.retry_after_s
    *. (1.
       +. (float_of_int (in_flight s) /. float_of_int (max 1 s.cfg.queue_bound))
       )
  in
  send s c (Wire.Rejected { reason; retryable; retry_after_s })

let make_req s ~spec ~grid ~digest ~deadline_s =
  let ticket = s.next_ticket in
  s.next_ticket <- ticket + 1;
  let deadline =
    let rel =
      match deadline_s with Some _ -> deadline_s | None -> s.cfg.default_deadline_s
    in
    Option.map (fun d -> Obs.Clock.now () +. d) rel
  in
  let total =
    List.length grid.Scenarios.Campaign.faults
    * List.length grid.Scenarios.Campaign.grid_scenarios
  in
  {
    ticket;
    digest;
    spec;
    grid;
    total;
    deadline;
    submitted_at = Obs.Clock.now ();
    abort = Atomic.make false;
    progress = Atomic.make 0;
    sent_progress = -1;
    state = `Queued;
    kill = None;
    waiters = [];
  }

let admit s c (spec : Wire.spec) deadline_s =
  if not c.greeted then begin
    reject s c (Wire.Bad_spec "hello first");
    close_client s c
  end
  else if s.draining then reject s c Wire.Draining
  else
    match resolve_spec spec with
    | Error e -> reject s c (Wire.Bad_spec e)
    | Ok grid -> (
        let digest = digest_of ~spec grid in
        (* The store is GC'd concurrently (size budget, executor side),
           so the existence check and the read can race an eviction:
           a failed read falls through to re-execution — the journal
           makes that incremental — instead of crashing the daemon. *)
        let stored =
          let path = result_path s.cfg digest in
          if Sys.file_exists path then
            match read_file path with
            | csv ->
                (* LRU touch: a hit refreshes the file's mtime so the
                   eviction order tracks use, not just creation. *)
                (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
                Some csv
            | exception (Sys_error _ | End_of_file) -> None
          else None
        in
        match stored with
        | Some csv ->
            Obs.Metrics.incr m_store_hits;
            send s c (Wire.Result { ticket = 0; csv; durable = true })
        | None -> (
          let attachable (r : req) =
            r.state <> `Settled && r.kill = None && not (Atomic.get r.abort)
          in
          match Hashtbl.find_opt s.live digest with
          | Some r when attachable r ->
              (* Same digest already in flight: one execution, many
                 waiters. *)
              attach c r;
              send s c
                (Wire.Accepted { ticket = r.ticket; position = 0; cells = r.total })
          | _ ->
              if c.live >= s.cfg.quota then reject s c Wire.Over_quota
              else
                (* Degradation tier 1: a server that lost its journal
                   halves its appetite — less buffered work that a crash
                   would silently forget. *)
                let bound =
                  if s.degraded then max 1 (s.cfg.queue_bound / 2)
                  else s.cfg.queue_bound
                in
                if in_flight s >= bound then reject s c Wire.Queue_full
                else begin
                  let r = make_req s ~spec ~grid ~digest ~deadline_s in
                  (* [Pending] hits the disk before the client hears
                     [Accepted]: an acknowledged request is one a crash
                     cannot lose. *)
                  Scenarios.Journal.append s.admissions ~key:digest (Pending spec);
                  if Scenarios.Journal.degraded s.admissions then degrade s;
                  Hashtbl.replace s.live digest r;
                  attach c r;
                  let position = in_flight s in
                  s.backlog <- s.backlog @ [ r ];
                  Condition.signal s.work_c;
                  Obs.Metrics.incr m_submitted;
                  sync_gauges s;
                  send s c
                    (Wire.Accepted { ticket = r.ticket; position; cells = r.total })
                end))

(* ------------------------------------------------------------------ *)
(* Executor domain                                                     *)

let store_result s digest csv =
  try
    let tmp = result_path s.cfg digest ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc csv;
    close_out oc;
    Sys.rename tmp (result_path s.cfg digest);
    true
  with Sys_error _ -> false

(* Size-budgeted store GC: a long-lived daemon must not grow its result
   store without bound. Evict least-recently-used first (mtime — store
   hits refresh it) until the directory fits [store_budget_bytes]
   (0 = unbounded). Evicting a digest is safe: the admissions check
   falls through to re-execution, and the cell journal makes the re-run
   incremental. Runs on executor lanes after each store and once at
   startup; concurrent sweeps can race each other's [Sys.remove], so
   every removal is try-wrapped. *)
let gc_store s =
  let dir = results_dir s.cfg in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      let files =
        Array.to_list names
        |> List.filter_map (fun name ->
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                   Some (path, st_size, st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None)
      in
      let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 files in
      Obs.Metrics.set g_store_bytes (float_of_int total);
      let budget = s.cfg.store_budget_bytes in
      if budget > 0 && total > budget then begin
        let by_age = List.sort (fun (_, _, a) (_, _, b) -> compare a b) files in
        let remaining = ref total in
        List.iter
          (fun (path, sz, _) ->
            if !remaining > budget then
              match Sys.remove path with
              | () ->
                  remaining := !remaining - sz;
                  Obs.Metrics.incr m_store_evictions
              | exception Sys_error _ -> ())
          by_age;
        Obs.Metrics.set g_store_bytes (float_of_int !remaining)
      end

let run_request s (r : req) =
  let t0 = Obs.Clock.now () in
  let retry =
    if r.spec.Wire.retries > 0 then
      Some
        (Exec.Supervise.policy
           ~max_attempts:(r.spec.Wire.retries + 1)
           ~seed:r.spec.Wire.seed ())
    else None
  in
  (* The probe merges per-request cancellation (deadline, explicit
     cancel, orphaning) with the global drain stop; either aborts the
     campaign at the next cell boundary. *)
  let abort () = Atomic.get r.abort || Atomic.get s.stop in
  (* Fleet-share scheduling: with [concurrent = k] lanes, a sharded lane
     runs on a 1/k share of the configured worker fleet. Fleets are keyed
     by the coordinating domain, so each lane's share is its own resident
     worker processes and one campaign's crash/abort recovery never
     touches a neighbour's workers. [domains] is passed whole: unsharded
     lanes share the resident pool of that size through its lease ring,
     and each sharded lane's workers run that many domains. *)
  let shards =
    Option.map (fun n -> max 1 (n / max 1 s.cfg.concurrent)) s.cfg.shards
  in
  Obs.Metrics.incr m_slot_leases;
  match
    Scenarios.Campaign.run ?domains:s.cfg.domains ?shards
      ?window:r.spec.Wire.window
      ~journal:(cells_path s.cfg r.digest)
      ~resume:true ?retry
      ~on_cell:(fun _cell -> Atomic.incr r.progress)
      ~abort ?chaos:s.cfg.chaos r.grid
  with
  | c ->
      let csv = Scenarios.Export.campaign_csv c in
      let stored = store_result s r.digest csv in
      if stored then gc_store s;
      Obs.Metrics.observe h_run (Obs.Clock.now () -. t0);
      let durable =
        stored && not c.Scenarios.Campaign.robustness.Scenarios.Campaign.degraded
      in
      Completed { csv; durable }
  | exception Exec.Pool.Aborted -> Checkpointed
  | exception e -> Crashed (Printexc.to_string e)

(* One executor lane. Picks the smallest queued grid first (total cells,
   ties broken by ticket, i.e. FIFO among equals): size-aware admission
   to the lanes, so a 1-cell probe submitted behind a long grid runs on
   the next free lane immediately — the head-of-line block the
   concurrent daemon exists to remove. Entries settled while queued
   (kill, drain) are pruned on the way. *)
let executor s =
  let rec next () =
    Mutex.lock s.m;
    let rec pick () =
      if Atomic.get s.stop then None
      else begin
        s.backlog <- List.filter (fun (r : req) -> r.state = `Queued) s.backlog;
        match s.backlog with
        | [] ->
            Condition.wait s.work_c s.m;
            pick ()
        | first :: rest ->
            let best =
              List.fold_left
                (fun (best : req) (r : req) ->
                  if (r.total, r.ticket) < (best.total, best.ticket) then r
                  else best)
                first rest
            in
            s.backlog <- List.filter (fun r -> r != best) s.backlog;
            Some best
      end
    in
    let r = pick () in
    (match r with
    | Some r ->
        r.state <- `Running;
        s.running <- r :: s.running;
        Obs.Metrics.set g_concurrent (float_of_int (List.length s.running))
    | None -> ());
    Mutex.unlock s.m;
    match r with
    | None -> ()
    | Some r ->
        Obs.Metrics.observe h_queue_wait (Obs.Clock.now () -. r.submitted_at);
        let outcome = run_request s r in
        Mutex.lock s.m;
        s.running <- List.filter (fun r' -> r' != r) s.running;
        Obs.Metrics.set g_concurrent (float_of_int (List.length s.running));
        Queue.push (r, outcome) s.done_q;
        Mutex.unlock s.m;
        next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Recovery and drain                                                  *)

(* Startup recovery: any [Pending] without a [Settled] after it is work
   a previous incarnation acknowledged but never finished — SIGKILL,
   power loss, a drain checkpoint. Re-enqueue it with no waiters; the
   cell journal makes the re-run incremental, and the client that cared
   will resubmit the same digest and attach (or hit the result store). *)
let recover s =
  let replay =
    (Scenarios.Journal.replay (admissions_path s.cfg) : admission Scenarios.Journal.replay)
  in
  List.iter
    (fun (digest, adm) ->
      match adm with
      | Settled -> ()
      | Pending spec -> (
          if Sys.file_exists (result_path s.cfg digest) then
            (* Finished, but the [Settled] append was lost: heal. *)
            Scenarios.Journal.append s.admissions ~key:digest Settled
          else
            match resolve_spec spec with
            | Error _ ->
                (* The catalogue changed under the journal; the spec can
                   never run again. Retire it. *)
                Scenarios.Journal.append s.admissions ~key:digest Settled
            | Ok grid ->
                let r = make_req s ~spec ~grid ~digest ~deadline_s:None in
                Hashtbl.replace s.live digest r;
                s.backlog <- s.backlog @ [ r ];
                Obs.Metrics.incr m_recovered))
    replay.Scenarios.Journal.entries;
  if Scenarios.Journal.degraded s.admissions then degrade s

let begin_drain s ~drainer =
  if not s.draining then begin
    s.draining <- true;
    s.drain_t0 <- Obs.Clock.now ();
    Obs.Metrics.set g_draining 1.;
    (* Queued work checkpoints instantly: its [Pending] record IS the
       checkpoint. Each running campaign aborts at a cell boundary, so
       the drain costs at most one cell of wall clock per lane plus the
       flush. *)
    List.iter
      (fun (r : req) -> if r.state = `Queued then settle s r Checkpointed)
      s.backlog;
    List.iter (fun (r : req) -> Atomic.set r.abort true) s.running;
    Atomic.set s.stop true;
    Condition.broadcast s.work_c
  end;
  match drainer with
  | Some c ->
      let checkpointed = s.checkpointed + List.length s.running in
      send s c (Wire.Draining_ack { settled = s.settled; checkpointed })
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Event handling (main thread, [s.m] held)                            *)

let dispatch s c (rq : Wire.request) =
  match rq with
  | Wire.Hello { proto; client = _ } ->
      if proto <> Wire.proto_version then begin
        reject s c
          (Wire.Bad_spec
             (Fmt.str "protocol %d; this server speaks %d" proto
                Wire.proto_version));
        close_client s c
      end
      else begin
        c.greeted <- true;
        send s c
          (Wire.Welcome { proto = Wire.proto_version; server = "campaignd" })
      end
  | Wire.Submit { spec; deadline_s } -> admit s c spec deadline_s
  | Wire.Cancel { ticket } ->
      let hits =
        Hashtbl.fold
          (fun _ (r : req) acc -> if r.ticket = ticket then r :: acc else acc)
          s.live []
      in
      List.iter (fun r -> kill_req s r ~kill:`Cancelled) hits
  | Wire.Stats ->
      sync_gauges s;
      send s c (Wire.Stats_reply { json = Obs.Export.to_json ~name:"serve" () })
  | Wire.Drain -> begin_drain s ~drainer:(Some c)

let rec drain_frames s c =
  if c.open_ then
    match Wire.Frame.decode c.rbuf with
    | `Frame rq ->
        dispatch s c rq;
        drain_frames s c
    | `Need_more -> ()
    | `Corrupt -> close_client s c

let handle_client_read s c =
  if c.open_ then begin
    let drop = match s.fault with Some f -> f `Read | None -> false in
    if drop then begin
      Obs.Metrics.incr m_chaos_drops;
      close_client s c
    end
    else
      let chunk = Bytes.create 65536 in
      match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
      | 0 -> close_client s c
      | n ->
          Wire.Frame.feed c.rbuf chunk n;
          drain_frames s c
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
      | exception Unix.Unix_error (_, _, _) -> close_client s c
  end

let handle_accept s lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
      Obs.Metrics.incr m_connections;
      let drop = match s.fault with Some f -> f `Accept | None -> false in
      if drop then begin
        (* Chaos accept fault: the connection dies before the client is
           ever registered, as a listener overflow or RST would. *)
        Obs.Metrics.incr m_chaos_drops;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Unix.set_nonblock fd;
        let c =
          {
            cfd = fd;
            rbuf = Wire.Frame.create ();
            outq = Queue.create ();
            out_off = 0;
            greeted = false;
            live = 0;
            last_drained = Obs.Clock.now ();
            open_ = true;
          }
        in
        s.clients <- c :: s.clients;
        Obs.Metrics.set g_active_clients (float_of_int (List.length s.clients))
      end
  | exception
      Unix.Unix_error
        ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED),
          _,
          _ ) ->
      ()

let process_done s =
  let rec go () =
    match Queue.take_opt s.done_q with
    | None -> ()
    | Some (r, outcome) ->
        settle s r outcome;
        go ()
  in
  go ()

let sweep_deadlines s =
  let now = Obs.Clock.now () in
  let expired =
    Hashtbl.fold
      (fun _ (r : req) acc ->
        match r.deadline with
        | Some d when now > d && r.state <> `Settled && r.kill = None ->
            r :: acc
        | _ -> acc)
      s.live []
  in
  List.iter (fun r -> kill_req s r ~kill:`Deadline) expired

let push_progress s =
  List.iter
    (fun (r : req) ->
      let p = Atomic.get r.progress in
      if p <> r.sent_progress then begin
        r.sent_progress <- p;
        List.iter
          (fun c ->
            send s c
              (Wire.Progress { ticket = r.ticket; completed = p; total = r.total }))
          r.waiters
      end)
    s.running

(* Slowloris guard: a client that stops reading jams its out-queue; once
   the queue has made no progress for [stall_timeout_s] the connection
   is dropped (orphaning — and thereby cancelling — its requests). One
   slow reader never wedges the loop or holds a quota slot forever. *)
let sweep_stalls s =
  let now = Obs.Clock.now () in
  let stalled =
    List.filter
      (fun c ->
        (not (Queue.is_empty c.outq))
        && now -. c.last_drained > s.cfg.stall_timeout_s)
      s.clients
  in
  List.iter
    (fun c ->
      Obs.Metrics.incr m_stalled;
      close_client s c)
    stalled

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)

let listen_unix path =
  (try Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

let rec main_loop s listeners =
  if Atomic.get s.drain_rq then begin
    Atomic.set s.drain_rq false;
    Mutex.lock s.m;
    begin_drain s ~drainer:None;
    Mutex.unlock s.m
  end;
  Mutex.lock s.m;
  process_done s;
  sweep_deadlines s;
  push_progress s;
  sweep_stalls s;
  let finished = s.draining && s.running = [] && Queue.is_empty s.done_q in
  Mutex.unlock s.m;
  if not finished then begin
    let rfds = listeners @ List.map (fun c -> c.cfd) s.clients in
    let wfds =
      List.filter_map
        (fun c -> if Queue.is_empty c.outq then None else Some c.cfd)
        s.clients
    in
    (match Unix.select rfds wfds [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        Mutex.lock s.m;
        List.iter
          (fun fd ->
            if List.mem fd listeners then handle_accept s fd
            else
              match List.find_opt (fun c -> c.cfd = fd) s.clients with
              | Some c -> handle_client_read s c
              | None -> ())
          readable;
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.cfd = fd) s.clients with
            | Some c -> flush_out s c
            | None -> ())
          writable;
        Mutex.unlock s.m);
    main_loop s listeners
  end

(* Post-drain: give buffered replies a short, bounded chance to reach
   their sockets. Nothing here may block — a client that cannot take
   its bytes within the grace loses them (it will resubmit and hit the
   store). *)
let final_flush s =
  let grace_until = Obs.Clock.now () +. 1.0 in
  let pending () =
    List.exists (fun c -> not (Queue.is_empty c.outq)) s.clients
  in
  while pending () && Obs.Clock.now () < grace_until do
    let wfds =
      List.filter_map
        (fun c -> if Queue.is_empty c.outq then None else Some c.cfd)
        s.clients
    in
    match Unix.select [] wfds [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _, writable, _ ->
        List.iter
          (fun fd ->
            match List.find_opt (fun c -> c.cfd = fd) s.clients with
            | Some c -> flush_out s c
            | None -> ())
          writable
  done;
  List.iter (fun c -> close_client s c) s.clients

let run cfg =
  mkdir_p cfg.state_dir;
  mkdir_p (results_dir cfg);
  let admissions =
    Scenarios.Journal.create ~on_error:`Degrade (admissions_path cfg)
  in
  let s =
    {
      cfg;
      m = Mutex.create ();
      work_c = Condition.create ();
      backlog = [];
      done_q = Queue.create ();
      stop = Atomic.make false;
      drain_rq = Atomic.make false;
      admissions;
      fault = Option.bind cfg.chaos Exec.Chaos.server_fault;
      live = Hashtbl.create 64;
      draining = false;
      degraded = false;
      running = [];
      clients = [];
      next_ticket = 1;
      settled = 0;
      checkpointed = 0;
      drain_t0 = 0.;
    }
  in
  recover s;
  gc_store s;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_term _ = Atomic.set s.drain_rq true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_term);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_term);
  let lunix = listen_unix cfg.socket in
  let ltcp = Option.map listen_tcp cfg.tcp_port in
  let listeners = lunix :: Option.to_list ltcp in
  let lanes =
    List.init (max 1 cfg.concurrent) (fun _ -> Domain.spawn (fun () -> executor s))
  in
  main_loop s listeners;
  final_flush s;
  List.iter Domain.join lanes;
  Obs.Metrics.observe h_drain (Obs.Clock.now () -. s.drain_t0);
  Mutex.lock s.m;
  sync_gauges s;
  Mutex.unlock s.m;
  Option.iter (fun p -> Obs.Export.write_file ~name:"serve" p) cfg.metrics_path;
  Scenarios.Journal.close s.admissions;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  try Sys.remove cfg.socket with Sys_error _ -> ()
