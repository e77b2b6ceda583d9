(** The campaign service's wire protocol (["SRV1"]).

    Frames are {!Exec.Frame} records, the one format the shard pipe and
    the scenario journal also use — [magic | payload length : u32le |
    CRC-32 : u32le | payload] — with their own magic and, crucially,
    {e closure-free} payloads: everything on the wire is pure data
    ([Marshal] without [Closures]), so a client built from a different
    binary than the server still interoperates. Faults travel as their
    {!Inject.Spec} grammar strings and scenarios as their numbers; the
    server re-resolves both against its own catalogue and rejects what
    it cannot parse ([`Bad_spec]).

    A torn or bit-flipped frame fails its length or CRC check and
    surfaces as [`Corrupt]; both sides treat a corrupt stream as a dead
    connection (the client reconnects and resubmits — submission is
    idempotent, keyed by the request digest). *)

val proto_version : int
(** Protocol generation, carried in {!Hello} / {!Welcome}. A server
    refuses clients with a different generation ([`Bad_spec]). *)

type spec = {
  seed : int;  (** campaign seed; part of the request digest *)
  faults : string list;
      (** fault specimens in {!Inject.Spec} grammar, in grid (row)
          order; [[]] selects the server's seed-[seed] smoke faults *)
  scenarios : int list;  (** scenario numbers, in grid (column) order *)
  window : float option;  (** classification window ([None] = default) *)
  retries : int;
      (** per-cell retry count (extra attempts, run at once); {e not}
          part of the digest — retries cannot change a deterministic
          result *)
}
(** A campaign submission: pure data, canonicalized and digested by the
    server, so equal specs — whatever client they come from — share one
    execution, one journal and one stored result. *)

type reject_reason =
  | Queue_full  (** admission queue at its bound: back off and retry *)
  | Over_quota  (** this client is at its concurrent-request quota *)
  | Draining  (** server is draining; it will not admit new work *)
  | Bad_spec of string  (** unparsable fault / unknown scenario / proto *)

type request =
  | Hello of { proto : int; client : string }
  | Submit of { spec : spec; deadline_s : float option }
      (** [deadline_s] bounds the request's total residence (queue wait
          plus run); past it the server cancels the work and reclaims
          the cells *)
  | Stats  (** ask for a live obs/1 telemetry snapshot *)
  | Drain  (** ask the server to drain and exit, as if SIGTERMed *)

type response =
  | Welcome of { proto : int; server : string }
  | Accepted of { ticket : int; position : int; cells : int }
      (** admitted: [position] in the queue at admission (0 = next),
          [cells] the grid size used for progress reporting *)
  | Rejected of {
      reason : reject_reason;
      retryable : bool;
          (** the typed retry discriminant: [true] for transient
              saturation ([Queue_full] / [Over_quota]) — resubmit the
              same spec after [retry_after_s]; [false] for terminal
              rejections ([Draining] / [Bad_spec]) — resubmitting the
              same spec cannot succeed. Clients branch on this field,
              never on rendered reason text. *)
      retry_after_s : float;
          (** the server's resubmission hint, scaled with its current
              load (deeper queue ⇒ longer hint) so a saturated daemon
              spreads retries instead of synchronizing a thundering
              herd *)
    }
      (** backpressure instead of unbounded buffering *)
  | Progress of { ticket : int; completed : int; total : int }
  | Result of { ticket : int; csv : string; durable : bool }
      (** the campaign CSV, byte-identical to the batch CLI's;
          [durable = false] warns that a journal degradation means the
          result is not crash-safe on the server *)
  | Failed of { ticket : int; reason : string }
  | Stats_reply of { json : string }  (** obs/1 snapshot *)
  | Draining_ack of { settled : int; checkpointed : int }
      (** drain accepted: requests already completed vs. checkpointed to
          the journal for the next incarnation to resume *)

module Frame : Exec.Frame.S
(** The socket's instance of {!Exec.Frame}, for both directions, with
    magic ["SRV1"] and closure-free payloads: {!Frame.encode} raises
    [Invalid_argument] on a value that captures a closure. The decoded
    type is the caller's claim: {!request} on the server, {!response} on
    the client. *)
