(** Supervised batch execution: retry and quarantine on top of any batch
    runner — a {!Pool} of domains or a {!Shard} fleet of worker
    processes.

    A batch run through the supervisor degrades gracefully instead of
    aborting: a failed task is re-submitted at once (with the rest of
    that round's failures), up to [attempts] total attempts; a task that
    keeps failing ends in the {!Quarantined} terminal state carrying its
    last error, while every other task's result is kept. This is the
    only retry loop in the execution stack: runners execute each task
    once per round, and the supervisor alone counts attempts and
    quarantines. *)

type 'a status =
  | Done of 'a  (** completed, possibly after retries *)
  | Quarantined of Pool.error
      (** terminal: last error after exhausting attempts (or after an
          abort); [error.index] is the task's position in the original
          batch *)

type 'a report = { status : 'a status; attempts : int }
(** [attempts] is the number of attempts actually made ([>= 1]). *)

type stats = {
  tasks : int;
  retried : int;  (** tasks that needed more than one attempt *)
  retries : int;  (** total extra attempts across the batch *)
  quarantined : int;  (** tasks that ended {!Quarantined} *)
}

val stats : 'a report list -> stats
(** [stats reports] folds a settled batch into its retry/quarantine
    totals — the summary surfaced as campaign "robustness" counts. *)

type ('a, 'b) runner =
  on_result:(int -> 'b -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, Pool.error) result list
(** A batch runner: runs [f] once over every element and returns result
    [i] for input [i], like {!Pool.try_map}. It calls [on_result i v] as
    task [i] settles [Ok v] — the moment the result exists, so a caller
    can make each result durable before the batch ends — and a hook that
    raises fails its task with that exception. A sharded runner is
    [fun ~on_result f xs -> Shard.try_map ~on_result f xs] (the hook runs
    on the coordinator as the result frame arrives). *)

val in_process :
  ?domains:int -> ?abort:(unit -> bool) -> unit -> ('a, 'b) runner
(** The domain-pool runner: {!Pool.try_map} with the same [domains] and
    [abort], calling the settle hook inside the task on the domain that
    ran it (so the hook must be domain-safe). [~domains:n] with [n > 1]
    runs each round on the resident pool of [n] workers. *)

val try_map :
  ?attempts:int ->
  ?on_result:(int -> 'b -> unit) ->
  ('a, 'b) runner ->
  ('a -> 'b) ->
  'a list ->
  'b report list
(** [try_map ?attempts ?on_result run f xs] runs [f] over [xs] on [run]
    under supervision: report [i] corresponds to input [i] (submission
    order). Each retry round re-submits only the still-failing tasks, as
    one batch, right after the previous round settles. [attempts] is the
    total number of attempts per task (default 1: no retry).

    [on_result i v] is forwarded to the runner's settle hook, with [i]
    mapped back from the round's position to the task's position in the
    original batch. It fires exactly once per task that settles
    [Done v], never for quarantined tasks.

    A task the runner settles as {!Pool.Aborted} is never retried — it
    quarantines immediately, because the abort is the caller cancelling
    the batch, not a fault. A task a {!Shard} runner reports as
    {!Shard.Worker_crashed} (its slot's restart budget ran out) {e is}
    retried: the next round is a new shard job, whose slots respawn with
    a fresh restart budget.

    @raise Invalid_argument if [attempts < 1]. *)
