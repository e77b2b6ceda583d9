(** Deterministic, seeded infrastructure-fault plans for chaos testing
    the execution stack itself.

    {!Inject} perturbs the {e simulated} system's signals; this module
    perturbs the {e infrastructure} that runs the simulations — worker
    processes, pipe frames, journal appends, spawns — so the composite
    failure modes of [Shard] + [Supervise] + the scenario journal are
    exercised on purpose instead of discovered in production. A plan is
    pure data (no closures, no hidden state): which faults to inject,
    each with a {!trigger} saying {e when}. Each execution layer takes
    the whole plan ([Shard.try_map ~chaos], [Scenarios.Journal.create
    ~chaos], the campaign server's config) and derives its own hook with
    {!worker_fault}, {!spawn_fault}, {!journal_fault} or
    {!server_fault}.

    Determinism: a trigger fires as a pure function of
    [(plan seed, fault kind, opportunity index)]. [At n] fires on
    exactly the [n]-th opportunity; [Rate p] draws one uniform variate
    per opportunity from a {!Inject.Prng} child generator keyed on the
    kind and index, so the same plan torments the same run the same way
    every time. Every fault in the catalogue is {e recoverable}: a
    campaign under any chaos plan must produce output bit-for-bit
    identical to the chaos-free run (hangs and crashes are requeued,
    torn and corrupt frames dropped and recomputed, journal errors
    degrade durability without touching results, spawn failures fall
    back to in-process execution). *)

type fault =
  | Torn_frame  (** worker dies mid-frame write *)
  | Corrupt_frame  (** worker bit-flips a result frame (CRC must catch) *)
  | Hang
      (** worker holds its pipe open, stops heartbeating and never
          responds — the open-pipe hang that only a heartbeat deadline
          can detect *)
  | Crash  (** worker exits without writing anything *)
  | Slow of float
      (** worker delays its results this many seconds while continuing
          to heartbeat — slow but healthy, must {e not} be killed by
          hang detection *)

type trigger =
  | At of int  (** fire on exactly the [n]-th opportunity (1-based) *)
  | Rate of float
      (** fire with this probability per opportunity, drawn
          deterministically from the plan seed *)

type t = {
  seed : int;  (** seeds every [Rate] draw ({!Inject.Prng.derive}) *)
  worker : (fault * trigger) list;
      (** frame-level worker faults; opportunity = job-global batch
          assignment sequence number, first firing entry wins *)
  journal_write : trigger option;
      (** the append's write fails mid-record; opportunity = append
          index within one writer *)
  journal_fsync : trigger option;
      (** the append's fsync fails; opportunity = append index *)
  spawn : trigger option;
      (** the worker spawn fails; opportunity = spawn attempt index
          within one sharded run *)
  accept : trigger option;
      (** the campaign server drops a client connection right after
          accepting it; opportunity = accept index within one server *)
  srv_read : trigger option;
      (** the server drops a client connection at a request read;
          opportunity = server read index *)
  srv_write : trigger option;
      (** the server drops a client connection instead of writing a
          response; opportunity = server write index *)
}

val none : t
(** The empty plan: injects nothing. *)

val is_empty : t -> bool

val fires : seed:int -> salt:int -> n:int -> trigger -> bool
(** [fires ~seed ~salt ~n tr] — whether trigger [tr] fires on the
    [n]-th opportunity of the fault kind salted [salt]. Exposed for
    tests; the hook derivations below are the intended consumers. *)

val worker_fault : t -> (slot:int -> seq:int -> fault option) option
(** The worker-frame fault hook a {!Shard} worker derives from its job's
    plan: consulted once per batch assignment with the job-global
    sequence number. [None] when the plan injects no worker faults. *)

val spawn_fault : t -> (attempt:int -> bool) option
(** The spawn-failure hook {!Shard.try_map} derives: [true] means this
    spawn attempt must fail. *)

val journal_fault : t -> ([ `Write | `Fsync ] -> bool) option
(** The journal-fault hook [Scenarios.Journal.create] derives: each
    append consults [`Write] once (advancing the hook's append counter)
    and [`Fsync] once. Stateful — one hook per writer. *)

val server_fault : t -> ([ `Accept | `Read | `Write ] -> bool) option
(** The connection-fault hook for the campaign server ([Serve.Server]):
    consulted at each accept, request read and response write; [true]
    means the server must drop that client's connection at that point
    (the client recovers by reconnecting and resubmitting — results
    already journaled are replayed, so the retry converges). Each fault
    point keeps its own opportunity counter. Stateful — derive one hook
    per server instance. *)

val parse : ?seed:int -> string -> (t, string) result
(** [parse ~seed spec] — the [--chaos SPEC] grammar: comma-separated
    terms, each [KIND@N] (fire on the [N]-th opportunity) or [KIND~P]
    (fire with probability [P] per opportunity). Kinds: [hang], [crash],
    [torn], [corrupt], [slow@N:SECS] / [slow~P:SECS] (the suffix is the
    delay), [jwrite], [jfsync], [spawn], [accept], [sread], [swrite].
    Worker kinds may repeat; every other kind may appear at most
    once. *)

val to_string : t -> string
(** Canonical spec string of the plan (the seed is carried separately,
    exactly as on the CLI). [parse (to_string t)] is [t] up to the
    seed. *)

val conv_doc : string
(** Human-readable grammar summary for CLI [--chaos] flags. *)
