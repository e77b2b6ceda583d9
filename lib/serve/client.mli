(** Client side of the campaign service: connect, submit, survive.

    The client owns the resilience the protocol asks of it: submission
    is idempotent (the server keys work by spec digest), so every
    transport failure — refused connection while the daemon restarts, a
    connection dropped by a chaos fault, a corrupt frame — is absorbed
    by reconnecting and resubmitting. Backpressure — a [Rejected] whose
    typed [retryable] flag is set — is obeyed by sleeping the server's
    load-scaled [retry_after_s] hint and retrying without burning the
    reconnect budget; the discriminant is the wire field, never a match
    on rendered reason text. Only server-side verdicts — [Failed] and
    non-retryable rejections ([Bad_spec], [Draining]) — are
    terminal, and so is a daemon that refuses the greeting itself (one
    of another protocol generation): the call ends at once with the
    server's reason.

    {1 Sessions}

    Each domain keeps at most one greeted session per socket path, and
    {!submit_and_wait}, {!stats} and {!drain} run on it, so a domain's
    sequential calls to one daemon share one connection.
    - A call takes the session out of the domain's table: a nested call
      (from a [progress] hook) opens a session of its own.
    - The session goes back after a terminal answer that leaves no
      unread bytes; any exception closes it, and {!drain} closes it.
    - A kept session whose first exchange of a call fails (EPIPE,
      ECONNRESET, end of stream, a corrupt frame: the daemon restarted
      since) is closed and the request resubmitted at once on a new
      session. That retry is not charged against [attempts] and costs
      no pause; a failure on a new session is charged as usual.
    - Sockets are close-on-exec, so a process spawned later never holds
      a kept connection open; a session opened by another process (a
      fork) is never reused.
    - A domain's sessions are closed when it exits ([Domain.at_exit]).

    Counters [serve.client.sessions_opened], [serve.client.sessions_reused]
    and [serve.client.reconnects] (the uncharged retries) count this
    process's sessions. *)

type result = { ticket : int; csv : string; durable : bool }
(** [csv] is byte-identical to the batch CLI's campaign export;
    [durable = false] flags that the server journal was degraded and the
    result is not crash-safe on the server side. *)

val submit_and_wait :
  ?attempts:int ->
  ?patience_s:float ->
  ?deadline_s:float ->
  ?progress:(completed:int -> total:int -> unit) ->
  socket:string ->
  Wire.spec ->
  (result, string) Stdlib.result
(** Submit [spec] and block until a terminal answer.

    [attempts] (default 10) bounds reconnect-and-resubmit cycles after
    transport failures; [patience_s] (default 600) bounds the total wall
    clock including backpressure sleeps. [deadline_s] is forwarded to
    the server as the request deadline. [progress] fires on each
    [Progress] frame. [Error] carries the server's reason (or the
    exhausted-budget message) — the CLI maps it to a non-zero exit. *)

val stats : socket:string -> (string, string) Stdlib.result
(** Fetch a live obs/1 telemetry snapshot (JSON string). One shot — no
    retry loop beyond replacing a dead kept session; a dead server is an
    [Error]. *)

val drain :
  socket:string -> (int * int, string) Stdlib.result
(** Ask the server to drain and exit; returns (settled, checkpointed)
    from the [Draining_ack]. One shot, as {!stats}; the session is closed
    afterwards. *)
