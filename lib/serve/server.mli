(** The campaign service daemon.

    A long-lived server in front of the execution stack: it keeps the
    warm {!Exec.Shard} fleet, the in-process outcome cache and the trace
    store resident across requests, and serves campaign evaluation over
    a Unix-domain socket speaking {!Wire}. One request = one campaign
    grid; the reply carries the same CSV the batch CLI writes, byte for
    byte.

    {1 Robustness model}

    - {e Admission control}: the queue is bounded. Past the bound the
      server answers [Rejected {retryable = true; retry_after_s}]
      instead of buffering without limit — explicit backpressure, never
      an unbounded heap. The [retry_after_s] hint scales with current
      load (an empty daemon says the configured base, one at its bound
      says double), so saturated-server retries spread instead of
      synchronizing into a thundering herd. Per-client concurrency
      quotas bound what any one client can hold.
    - {e Fleet-share scheduling}: [concurrent] executor lanes (domains)
      run admitted campaigns in parallel, each leasing a [1/concurrent]
      share of the configured shard fleet — disjoint resident worker
      processes per lane, because fleets are keyed by the coordinating
      domain — while unsharded lanes share the resident domain pool's
      fair-share lease ring
      ([serve.concurrent] gauge, [serve.slot_leases] counter). A free
      lane picks the {e smallest} queued grid first (FIFO among
      equals), so a 1-cell probe submitted behind a long grid completes
      first instead of head-of-line blocking. Results stay
      byte-identical to the batch CLI for any lane count or
      interleaving.
    - {e Deadlines}: a request past its deadline is cancelled wherever
      it is — dropped from the queue, or cooperatively aborted mid-run
      with its remaining cells reclaimed ({!Exec.Pool.Aborted}).
    - {e Disconnect detection}: a request whose every client has gone
      away is abandoned the same way; orphaned work never poisons the
      fleet.
    - {e Durability}: every admitted request has a pending file,
      [pending/<digest>] in the state directory, before it is
      acknowledged, and every cell result is journaled as it settles
      ([cells-<digest>.jnl]). A SIGKILLed server lists [pending/] on
      restart, re-enqueues the requests it finds there
      ([serve.recovered]) and resumes each from its cell journal — the
      eventual CSV is byte-identical to an uninterrupted run. Completed
      results live in an on-disk store keyed by the request digest, so
      resubmitting a finished spec is a store hit. A pending file (a
      one-record SJL1 journal holding [(digest, spec)]) and a stored
      result are published alike: written and fsynced under a temporary
      name, renamed into place, and the rename made durable by fsyncing
      the directory.
      A settled request is retired: its pending file and cell journal
      are removed, and when it did not complete (crashed, past its
      deadline, orphaned) the removal is made durable by fsyncing
      [pending/], so abandoned work cannot come back. A drain checkpoint
      keeps both files. A request retires only while it still owns its
      digest: the files of one admitted under the same digest while it
      was being killed stay. Recovery removes, with its cell journal, a
      pending file that does not read back as one record keyed by its
      own name, whose result is stored, or whose spec no longer
      resolves. The state directory therefore holds a pending file and
      a cell journal only for an unsettled or checkpointed request,
      however long the daemon lives. An [admissions.jnl] left by an
      older daemon is not read: its pending requests are not
      re-enqueued, but a resubmission still resumes from its
      [cells-<digest>.jnl].
      Only a complete matrix is stored: a campaign that quarantined a
      cell (a request with [retries > 0] whose cell failed every
      attempt) settles as a crash, [Failed "<n> cell(s) quarantined"],
      stores nothing and retires its files. The store key leaves
      [retries] out, so a stored thinned CSV would answer every later
      submission of the spec, one without retries included.
      The store is size-budgeted ([store_budget_bytes]): past the
      budget the oldest results (by mtime, their publish time) are
      evicted ([serve.store_bytes] gauge, [serve.store_evictions]
      counter), and an evicted digest simply re-executes on the next
      submission.
    - {e Graceful drain}: SIGTERM (or a [Drain] request) stops
      admission, checkpoints the queue (its pending files survive to the
      next incarnation), cooperatively aborts the running campaign
      at a cell boundary — completed cells are already journaled — and
      exits 0 once every waiter is answered.
    - {e Degradation tiers}: a pending file that cannot be published,
      or a retirement that cannot be made durable, flips the server
      degraded ([serve.degraded] gauge, [durable = false] in results)
      and halves the admission bound — a sick server sheds load instead
      of dying; {!Exec.Shard}'s in-process fallback covers total spawn
      failure below it.

    {!Exec.Chaos} server fault points ([accept] / [sread] / [swrite])
    thread through the accept/read/write paths: each drops the client's
    connection at that opportunity, which a client absorbs by
    reconnecting and resubmitting (idempotent by digest).

    Live telemetry ([serve.*] counters, gauges and histograms) is
    served as an obs/1 snapshot over the [Stats] request.

    {1 Latency}

    One thread owns every socket and waits in [Unix.select]. Executor
    lanes wake it through a non-blocking, close-on-exec pipe: a lane
    writes one byte after each settled cell and after handing over each
    finished request, and the SIGTERM/SIGINT handler writes one too (a
    full pipe already wakes the loop, so a byte that does not fit is
    dropped). The loop empties the pipe before it settles what the
    lanes finished, so a result, a [Progress] frame or a deadline kill
    leaves as soon as its cell settles, and an idle daemon answers a
    one-cell request within a few milliseconds of its campaign. The
    [select] timeout (0.2 s) remains only as the period of the sweeps
    that nothing else triggers: slow readers past [stall_timeout_s] and
    deadlines of requests still queued. The handlers are restored when
    {!run} returns, before the pipe closes.

    {1 Memory}

    A store hit reads its result with [Unix] calls and its frames
    through {!Exec.Frame}'s in-place reader, whose buffers start below
    OCaml's minor-heap limit: a hit session allocates next to nothing in
    the major heap, so hits cost CPU, not major collections. What a
    request leaves behind (above all the traces its cells evicted from
    the outcome cache) is collected by its executor lane, which runs one
    [Gc.major ()] after handing each finished request to the main loop. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  state_dir : string;
      (** pending files and cell journals of unsettled or checkpointed
          requests, result store *)
  queue_bound : int;  (** admission queue bound (>= 1) *)
  quota : int;  (** per-client concurrent-request quota (>= 1) *)
  concurrent : int;
      (** executor lanes: campaigns run at once, each on a [1/concurrent]
          fleet share (>= 1; 1 = the sequential daemon) *)
  store_budget_bytes : int;
      (** result-store size budget; oldest-first eviction past it
          (0 = unbounded) *)
  default_deadline_s : float option;
      (** deadline applied to requests that do not carry their own *)
  stall_timeout_s : float;
      (** drop a client whose response buffer has made no progress for
          this long (the slowloris bound) *)
  retry_after_s : float;
      (** base backpressure hint in [Rejected] replies; the wire value
          is this base scaled up with current queue depth *)
  domains : int option;  (** domains for campaign execution *)
  shards : int option;  (** shard the campaigns across worker processes *)
  chaos : Exec.Chaos.t option;
      (** deterministic fault plan; server fault points consult it at
          accept/read/write, and it is threaded into each campaign run *)
  metrics_path : string option;
      (** write a final obs/1 snapshot here on exit *)
}

val default_config : socket:string -> state_dir:string -> config
(** Queue bound 8, quota 4, one executor lane, 64 MiB store budget, no
    default deadline, 10 s stall timeout, 1 s base retry-after,
    defaults elsewhere ([None]). *)

val run : config -> unit
(** Run the daemon until a drain completes (SIGTERM, SIGINT or a [Drain]
    request). Returns normally after the drain — the caller owns the
    exit code — with the SIGTERM/SIGINT handlers it found restored. The
    process must have called {!Exec.Shard.init} first thing in [main]
    when [shards] is used. *)
