(** A fixed-size pool of OCaml 5 domains with fair-share batch
    scheduling.

    Tasks are submitted in batches ([map] / [try_map]); results are always
    returned in submission order, regardless of the order in which the
    domains complete them, so parallel execution is observationally
    deterministic for pure tasks. An exception raised by one task is
    captured per task and cannot take down the pool or the other tasks.

    Each batch holds its own {e lease} — a private job queue on a
    round-robin ring — so concurrent batches sharing one pool (e.g. two
    campaigns in the serve daemon) interleave at {e task} granularity: a
    worker takes one job from the head lease and rotates it to the back.
    A one-cell batch submitted while a hundred-cell batch is in flight
    runs at the next free worker instead of queuing behind the entire
    earlier batch. Per-batch [?abort] probes stay with their lease: one
    batch's cancellation never touches another's jobs.

    A pool of size 1 spawns no domains at all and executes every task
    inline on the caller — the sequential fallback for reproducibility
    debugging ([~domains:1]). *)

type t
(** A pool handle: a fixed set of worker domains plus their shared work
    queue. Values are created by {!create} (or {!default}) and remain
    usable until {!shutdown}. *)

type error = {
  index : int;  (** position of the failing task in the submitted batch *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
      (** captured at the raise site inside the worker domain and
          preserved across the domain boundary; [map] re-raises with it so
          the failure's origin is not replaced by the re-raise site *)
}

exception Reentrant_submission
(** A task attempted to submit a batch to the pool that is running it.
    Every worker of the pool may be blocked on the inner batch while the
    inner batch waits for a free worker — a deadlock — so the submission
    is refused up front. Raised by {!try_map_pool} / {!map_pool} (and the
    convenience wrappers when they resolve to the same pool) when called
    from one of the pool's own worker domains. *)

exception Aborted
(** The batch's [?abort] probe answered [true] before this task was
    started, so the task was never run; appears as the [exn] of an
    {!error} with a deliberately empty backtrace. Tasks already running
    when the probe flips are never preempted — they complete and publish
    normally — so an aborted batch settles as a mix of [Ok]/[Error]
    results for the work that ran and [Aborted] errors for the work that
    did not. *)

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of [domains] workers (default
    {!Domain.recommended_domain_count}, clamped to at least 1). *)

val size : t -> int
(** Number of workers the pool was created with (1 for the inline
    sequential pool). *)

val shutdown : t -> unit
(** Drain the queue, stop the workers and join their domains. The pool
    must not be used afterwards. *)

val try_map_pool :
  ?abort:(unit -> bool) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** Run [f] over every element on the pool; blocks until all tasks are
    done. Result [i] corresponds to input [i] (submission order). Tasks
    must not themselves submit work to the same pool: such a submission
    raises {!Reentrant_submission} (inside the offending task it is
    captured as that task's {!error}).

    The pool never preempts a task: a task that never returns holds its
    worker, and the batch, forever. Worker liveness is {!Shard}'s job
    (heartbeats and a hang sweep over whole worker processes).

    [abort] (default: none) is a cooperative-cancellation probe, polled
    when a worker picks a task up (and, on the sequential paths, before
    each task runs): once it answers [true], every not-yet-started task
    settles as [Error {exn = Aborted; _}] instead of running, while tasks
    already in flight complete normally. The probe must be fast and
    non-blocking — it is called under the pool lock; an [Atomic.get] is
    the intended shape. *)

val map_pool : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!try_map_pool} but re-raises the first (lowest-index) task
    failure — with the backtrace captured in the worker — after every task
    has finished. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with the default
    size. *)

val try_map :
  ?domains:int ->
  ?abort:(unit -> bool) ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** Convenience front-end: [~domains:1] runs inline sequentially;
    [~domains:n] runs on a transient pool of [n] workers that is shut
    down before returning; omitting [domains] uses the shared
    {!default} pool. [abort] as in {!try_map_pool}. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Same dispatch as {!try_map}, re-raising the first task failure. *)
