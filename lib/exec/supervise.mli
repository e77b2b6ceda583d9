(** Supervised batch execution: retry with exponential backoff and
    quarantine on top of any batch runner — a {!Pool} of domains or a
    {!Shard} fleet of worker processes.

    A batch run through the supervisor degrades gracefully instead of
    aborting: a task that fails a retryable way is re-submitted (with the
    rest of that round's failures) after a jittered exponential backoff,
    up to [max_attempts] total attempts; a task that keeps failing — or
    fails a non-retryable way — ends in the {!Quarantined} terminal state
    carrying its last error, while every other task's result is kept.
    This is the only retry loop in the execution stack: runners execute
    each task once per round, and the supervisor alone counts attempts,
    sleeps backoffs and quarantines.

    Backoff jitter is drawn from {!Inject.Prng} seeded by the policy, so a
    supervised run's delay schedule is deterministic for a given policy —
    the same reproducibility contract as the fault-injection campaigns the
    supervisor protects. *)

type policy = {
  max_attempts : int;  (** total attempts per task, [>= 1] *)
  base_delay_s : float;  (** backoff before the first retry *)
  max_delay_s : float;  (** cap on the exponential growth *)
  jitter : float;
      (** fraction in [\[0, 1\]]: each delay is scaled by a factor drawn
          uniformly from [1 - jitter, 1 + jitter] *)
  seed : int;  (** seeds the jitter PRNG ({!Inject.Prng.derive}) *)
  retry_on : exn -> bool;
      (** failures worth re-attempting; a failure rejected here
          quarantines its task immediately *)
}

val default_policy : policy
(** 3 attempts, 50 ms base delay doubling up to 1 s, ±25% jitter, seed 0,
    retry on everything except {!Pool.Reentrant_submission} (a re-entrant
    submission is a programming error that no retry can fix). *)

val policy :
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?jitter:float ->
  ?seed:int ->
  ?retry_on:(exn -> bool) ->
  unit ->
  policy
(** {!default_policy} with overrides. *)

val backoff_delay : policy -> attempt:int -> float
(** [backoff_delay p ~attempt] — the delay slept after [attempt] failed
    attempts (so [~attempt:1] precedes the first retry):
    [base_delay_s * 2^(attempt-1)], capped at [max_delay_s], scaled by the
    jitter factor for that attempt. Pure and deterministic in
    [(p.seed, attempt)].

    A delay of exactly [0.] (e.g. any policy with [base_delay_s = 0.]) is
    a fast path: the supervisor neither sleeps nor records a
    [supervise.backoff_s] histogram sample, so zero-delay retry policies
    (used by the tests) cost no wall-clock time. *)

type 'a status =
  | Done of 'a  (** completed, possibly after retries *)
  | Quarantined of Pool.error
      (** terminal: last error after exhausting attempts (or failing a
          non-retryable way); [error.index] is the task's position in the
          original batch *)

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
  ?policy:policy ->
  ?on_result:(int -> 'b -> unit) ->
  ('a, 'b) runner ->
  ('a -> 'b) ->
  'a list ->
  'b report list
(** [try_map ?policy ?on_result run f xs] runs [f] over [xs] on [run]
    under supervision: report [i] corresponds to input [i] (submission
    order). Each retry round re-submits only the still-failing tasks, as
    one batch, after a single backoff sleep. [policy] defaults to
    {!default_policy}.

    [on_result i v] is forwarded to the runner's settle hook, with [i]
    mapped back from the round's position to the task's position in the
    original batch. It fires exactly once per task that settles
    [Done v], never for quarantined tasks.

    A task the runner settles as {!Pool.Aborted} is never retried — it
    quarantines immediately regardless of [policy.retry_on], because the
    abort is the caller cancelling the batch, not a transient fault. A
    task a {!Shard} runner reports as {!Shard.Worker_crashed} (its slot's
    restart budget ran out) {e is} retryable under the default
    [retry_on]: the next round is a new shard job, whose slots respawn
    with a fresh restart budget. *)
