(** Resident pools of OCaml 5 domains with fair-share batch scheduling.

    Tasks are submitted in batches ([map] / [try_map]); results are always
    returned in submission order, regardless of the order in which the
    domains complete them, so parallel execution is observationally
    deterministic for pure tasks. An exception raised by one task is
    captured per task and cannot take down the pool or the other tasks.

    Pools are {e resident} and found by their size: the first batch asking
    for [n] domains spawns a pool of [n] workers, and every later batch of
    that size, from any domain, runs on the same workers. No pool is ever
    shut down; its domains live until the process exits, and callers name
    a pool only by its size.

    Each batch holds its own {e lease} — a private job queue on a
    round-robin ring — so concurrent batches sharing one pool (e.g. two
    campaigns in the serve daemon) interleave at {e task} granularity: a
    worker takes one job from the head lease and rotates it to the back.
    A one-cell batch submitted while a hundred-cell batch is in flight
    runs at the next free worker instead of queuing behind the entire
    earlier batch. Per-batch [?abort] probes stay with their lease: one
    batch's cancellation never touches another's jobs.

    A size of 1 spawns no domains at all and executes every task inline
    on the caller — the sequential fallback for reproducibility debugging
    ([~domains:1]). *)

type error = {
  index : int;  (** position of the failing task in the submitted batch *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
      (** captured at the raise site inside the worker domain and
          preserved across the domain boundary; [map] re-raises with it so
          the failure's origin is not replaced by the re-raise site *)
}

exception Reentrant_submission
(** A task attempted to submit a batch to the pool that is running it,
    i.e. a task on the pool of size [n] called {!try_map} or {!map} with
    [n] domains. Every worker of the pool may be blocked on the inner
    batch while the inner batch waits for a free worker — a deadlock — so
    the submission is refused up front (inside the offending task it is
    captured as that task's {!error}). A nested batch of a different size
    runs on a different pool and is legal. *)

exception Aborted
(** The batch's [?abort] probe answered [true] before this task was
    started, so the task was never run; appears as the [exn] of an
    {!error} with a deliberately empty backtrace. Tasks already running
    when the probe flips are never preempted — they complete and publish
    normally — so an aborted batch settles as a mix of [Ok]/[Error]
    results for the work that ran and [Aborted] errors for the work that
    did not. *)

val try_map :
  ?domains:int ->
  ?abort:(unit -> bool) ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** Run [f] over every element on the resident pool of [domains] workers
    (default {!Domain.recommended_domain_count}, clamped to at least 1);
    blocks until all tasks are done. Result [i] corresponds to input [i]
    (submission order). With one domain the tasks run inline on the
    caller.

    The pool never preempts a task: a task that never returns holds its
    worker, and the batch, forever. Worker liveness is {!Shard}'s job
    (heartbeats and a hang sweep over whole worker processes).

    [abort] (default: none) is a cooperative-cancellation probe, polled
    when a worker picks a task up (and, on the sequential path, before
    each task runs): once it answers [true], every not-yet-started task
    settles as [Error {exn = Aborted; _}] instead of running, while tasks
    already in flight complete normally. The probe must be fast and
    non-blocking — it is called under the pool lock; an [Atomic.get] is
    the intended shape.

    @raise Reentrant_submission when called from a worker of the pool
    the batch would run on. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!try_map} but re-raises the first (lowest-index) task failure —
    with the backtrace captured in the worker — after every task has
    finished. *)
