(** The campaign service daemon.

    A long-lived server in front of the execution stack: it keeps the
    warm {!Exec.Shard} fleet, the in-process outcome cache and the trace
    store resident across requests, and serves campaign evaluation over
    a Unix (and optionally TCP) socket speaking {!Wire}. One request =
    one campaign grid; the reply carries the same CSV the batch CLI
    writes, byte for byte.

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
    - {e Durability}: every admitted request is journaled ([Pending])
      before it is acknowledged, and every cell result is journaled as
      it settles. A SIGKILLed server finds the orphans on restart,
      re-enqueues them ([serve.recovered]) and resumes from the cell
      journal — the eventual CSV is byte-identical to an uninterrupted
      run. Completed results live in an on-disk store keyed by the
      request digest, so resubmitting a finished spec is a store hit.
      The store is size-budgeted ([store_budget_bytes]): past the
      budget the least-recently-used results (mtime; a hit refreshes
      it) are evicted ([serve.store_bytes] gauge,
      [serve.store_evictions] counter), and an evicted digest simply
      re-executes — incrementally, through its cell journal — on the
      next submission.
    - {e Graceful drain}: SIGTERM (or a [Drain] request) stops
      admission, checkpoints the queue (journaled [Pending] survives to
      the next incarnation), cooperatively aborts the running campaign
      at a cell boundary — completed cells are already journaled — and
      exits 0 once every waiter is answered.
    - {e Degradation tiers}: a journal device failure flips the server
      degraded ([serve.degraded] gauge, [durable = false] in results)
      and halves the admission bound — a sick server sheds load instead
      of dying; {!Exec.Shard}'s in-process fallback covers total spawn
      failure below it.

    {!Exec.Chaos} server fault points ([accept] / [sread] / [swrite])
    thread through the accept/read/write paths: each drops the client's
    connection at that opportunity, which a client absorbs by
    reconnecting and resubmitting (idempotent by digest).

    Live telemetry ([serve.*] counters, gauges and histograms) is
    served as an obs/1 snapshot over the [Stats] request. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  tcp_port : int option;  (** optional loopback TCP listener *)
  state_dir : string;
      (** admission journal, per-request cell journals, result store *)
  queue_bound : int;  (** admission queue bound (>= 1) *)
  quota : int;  (** per-client concurrent-request quota (>= 1) *)
  concurrent : int;
      (** executor lanes: campaigns run at once, each on a [1/concurrent]
          fleet share (>= 1; 1 = the sequential daemon) *)
  store_budget_bytes : int;
      (** result-store size budget; LRU eviction past it (0 = unbounded) *)
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
    exit code. The process must have called {!Exec.Shard.init} first
    thing in [main] when [shards] is used. *)
