(** The one CRC-guarded record format behind every byte stream in the
    repository: [magic | len : u32le | crc : u32le | payload], where
    [payload] is a [Marshal] image of at most 256 MiB and [crc] its
    {!Crc32.digest}. The length guard turns a bit-flipped length field
    into corruption instead of a multi-gigabyte allocation.

    Each stream is one instance with its own magic, so no reader ever
    decodes another stream's bytes: ["SHD1"] for the shard pipe
    ({!Shard.Frame}, payloads marshalled with [Closures] since both ends
    run one binary), ["SRV1"] for the service socket ([Serve.Wire.Frame])
    and ["SJL1"] for the scenario journal ([Scenarios.Journal.Record]).
    The last two carry pure data: {!S.encode} refuses a closure. Every
    stream, the journal file included, is written with {!S.write_all}
    and read with {!S.fill} and {!S.decode} on a descriptor. *)

module type S = sig
  val header_len : int
  (** Bytes before the payload: magic, length and CRC. *)

  val encode : 'a -> string
  (** The complete record carrying a value.

      @raise Invalid_argument on a payload beyond the length guard, or a
      closure in a closure-free format. *)

  type buf
  (** One stream's reassembly buffer. Bytes arrive at its fill level
      ({!fill}, {!feed}) and records are decoded where they lie
      ({!decode}): a read cursor moves past each record, and the bytes
      after it move to the front only when the buffer must make room. *)

  val create : unit -> buf
  (** An empty buffer of 1 KB. That is 128 words, below the 256-word
      limit above which OCaml allocates straight in the major heap, so a
      stream that only carries small records (a served store hit: hello,
      submit, result) never touches the major heap for its buffer. The
      start must stay below that limit: above it, every connection is a
      major-heap allocation, and a daemon serving store hits is bound by
      major collections instead of its CPU.

      A buffer grows only as bytes arrive: when it is full, to at most
      twice its size and to no more than the record at the cursor needs.
      It is never larger than twice the bytes its stream has delivered,
      or 1 KB, whatever length a header declares; a lone header claiming
      256 MiB costs nothing. *)

  val fill : Unix.file_descr -> buf -> int
  (** [fill fd buf] makes room (see {!create}) and does one [Unix.read]
      from [fd] straight into the buffer, returning the byte count; [0]
      is end of stream. [Unix.Unix_error] (EAGAIN, EINTR, ...) escapes
      to the caller, with no bytes added. *)

  val feed : buf -> bytes -> int -> unit
  (** [feed buf chunk n] appends the first [n] bytes of [chunk]: {!fill}
      for bytes already read elsewhere. *)

  val length : buf -> int
  (** Bytes filled or fed but not yet decoded; nonzero at end of stream
      means a torn tail. *)

  val decode : buf -> [ `Frame of 'a | `Need_more | `Corrupt ]
  (** Consume and return the first complete record, unmarshalled in
      place ([Marshal.from_bytes] at its offset; no copy of the payload).
      [`Need_more]: the buffer holds only a record prefix. [`Corrupt]:
      the stream is unrecoverable here: bad magic, absurd length, CRC
      mismatch, a payload shorter than a [Marshal] header, a [Marshal]
      image whose size is not exactly the declared length (so decoding
      never reads past its record), or a payload [Marshal] rejects. The
      decoded type is the caller's claim, exactly as with
      [Marshal.from_bytes]. *)

  val read : Unix.file_descr -> buf -> [ `Frame of 'a | `Eof | `Corrupt ]
  (** {!decode} the next record, calling {!fill} until one is complete
      or the peer closes the descriptor ([`Eof]). Blocking, EINTR-safe. *)

  val write : Unix.file_descr -> 'a -> unit
  (** {!encode} then {!write_all}. *)

  val write_all : Unix.file_descr -> string -> unit
  (** Write a whole encoded string (blocking, EINTR-safe). *)
end

module Make (_ : sig
  val magic : string

  val closures : bool
  (** Whether payloads marshal with [Marshal.Closures]. *)
end) : S
