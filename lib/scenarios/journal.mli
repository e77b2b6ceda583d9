(** Crash-safe, append-only result journal.

    A journal is a flat file of self-delimiting records, each holding one
    [(key, value)] pair: a record is one {!Exec.Frame} record, [magic |
    payload length | CRC-32 of the payload | payload], with magic
    ["SJL1"] and the payload a [Marshal]ed pair (see {!Record}). Appends
    are flushed {e and fsynced} before returning, so every record that
    [append] completed survives [SIGKILL] or power loss; a record that was
    being written when the process died is torn, fails its length or CRC
    check on replay, and is skipped — never fatal.

    Replay is tolerant by construction: an absent or empty file replays as
    empty; a torn or bit-flipped tail is detected (magic, length bound,
    CRC, unmarshal) and dropped, keeping every intact record before it;
    a reader that keeps the last occurrence of each key (as the resume
    path does) makes re-running a partially journaled campaign
    idempotent.

    The value type is fixed by the caller at use site. Journaled values
    must be closure-free pure data: the payload is [Marshal]ed without
    [Closures] mode, so {!append} refuses a closure instead of writing a
    record only the same binary could read back. Replaying a journal at a
    different type is the caller's contract to avoid, exactly as with
    [Marshal] itself: the unmarshal guard drops only payloads [Marshal]
    rejects outright, not well-formed records of another type. Writers
    serialize appends internally and are safe to share across domains;
    concurrent writers in {e separate processes} are not supported. *)

module Record : Exec.Frame.S
(** The journal's instance of {!Exec.Frame}: magic ["SJL1"], payloads
    marshalled without [Closures]. A record's payload is the
    [(key, value)] pair. The writer appends records with
    {!Exec.Frame.S.write_all} and {!fold} reads them with
    {!Exec.Frame.S.fill} and {!Exec.Frame.S.decode}, both on a
    descriptor, as the shard pipe and the service socket do. *)

type 'a writer

val create : ?fresh:bool -> ?chaos:Exec.Chaos.t -> string -> 'a writer
(** [create ?fresh path] opens [path] for appending (close-on-exec),
    creating it if absent. [~fresh:true] (default [false]) truncates an
    existing file first — a new run rather than a resumed one.

    A device failure inside {!append} (ENOSPC, EIO) never escapes: it
    marks the writer {!degraded}, counts in [journal.write_errors], and
    the campaign keeps running, just without durability. Degradation is
    {e terminal} for the writer: replay stops at the first invalid
    record, so after one torn append no later record could ever be
    replayed anyway; every subsequent append is skipped and counted in
    [journal.appends_dropped].

    [chaos] is a test/CI-only fault plan (default {!Exec.Chaos.none});
    the writer derives its own hook from it
    ({!Exec.Chaos.journal_fault}), so its opportunities are this
    writer's appends. A firing [jwrite] tears the record (half the
    bytes reach the file) and fails with EIO; a firing [jfsync] fails
    the append with ENOSPC after the full record was written.

    @raise Unix.Unix_error when [path] cannot be opened. *)

val append : 'a writer -> key:string -> 'a -> unit
(** Append one record and fsync it to disk before returning.
    Domain-safe. A device failure degrades the writer (see {!create});
    use {!degraded} to observe it.

    @raise Invalid_argument if the value contains a closure; nothing is
    written and the file is unchanged. *)

val degraded : 'a writer -> bool
(** Whether a device failure has switched this writer to degraded
    (memory-only) mode — results are no longer journaled, and a resume
    will re-execute the cells appended after the failure. Surfaced as the
    campaign robustness [degraded] flag. *)

val close : 'a writer -> unit
(** Close the descriptor. Every record was written and fsynced before
    its {!append} returned, so nothing is buffered and a [close(2)]
    error is ignored. *)

val with_writer : ?fresh:bool -> ?chaos:Exec.Chaos.t -> string -> ('a writer -> 'b) -> 'b
(** [create], run, then [close] (also on exception). *)

type fold_stats = {
  fold_records : int;
      (** intact records streamed to [f], duplicates included *)
  fold_valid_bytes : int;
      (** byte offset of the end of the last intact record — the length
          {!repair} would truncate the file to *)
  fold_dropped_bytes : int;
      (** trailing bytes discarded as torn or corrupt: the file's size
          less [fold_valid_bytes] (0 for a clean file) *)
}
(** What {!fold} saw besides the records themselves. *)

val fold : string -> init:'acc -> f:('acc -> string -> 'a -> 'acc) -> 'acc * fold_stats
(** [fold path ~init ~f] streams every intact record of the journal at
    [path] through [f acc key value] in append order, without ever
    materializing the record list: records are read into one
    {!Exec.Frame} buffer and unmarshalled where they lie, so live state is
    [f]'s accumulator plus a buffer about the size of the largest record,
    and a multi-gigabyte journal replays in constant memory. Duplicate
    keys are {e not} collapsed — [f] sees every intact append, last
    occurrence last, so a last-wins consumer (the resume path) gets it by
    simply overwriting.

    An absent file folds as [init]. Torn, truncated or bit-flipped tails
    never raise: the first record that fails validation ends the fold and
    the remaining bytes are counted in [fold_dropped_bytes]. *)

val repair : string -> int
(** [repair path] truncates a torn or corrupt tail off the journal in
    place, returning the number of bytes removed (0 for a clean or
    absent file). Appending to a journal whose tail is torn — a resumed
    campaign after a SIGKILL landed mid-append — would otherwise leave
    the new records unreachable: replay stops at the first invalid
    record, so everything written after the tear could never be read
    back. The resume path calls this before reopening the journal for
    appending. *)

val crc32 : string -> int32
(** The CRC-32 (IEEE 802.3, as in gzip) of a string — exposed for tests
    and for callers that want to checksum derived artifacts the same
    way. *)
