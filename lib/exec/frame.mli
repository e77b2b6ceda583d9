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
    The last two carry pure data: {!S.encode} refuses a closure. *)

module type S = sig
  val header_len : int
  (** Bytes before the payload: magic, length and CRC. *)

  val encode : 'a -> string
  (** The complete record carrying a value.

      @raise Invalid_argument on a payload beyond the length guard, or a
      closure in a closure-free format. *)

  type buf
  (** A growable reassembly buffer for one stream's bytes. *)

  val create : unit -> buf

  val feed : buf -> bytes -> int -> unit
  (** [feed buf chunk n] appends the first [n] bytes of [chunk]. *)

  val length : buf -> int
  (** Bytes fed but not yet decoded; nonzero at end of stream means a
      torn tail. *)

  val decode : buf -> [ `Frame of 'a | `Need_more | `Corrupt ]
  (** Consume and return the first complete record. [`Need_more]: the
      buffer holds only a record prefix. [`Corrupt]: the stream is
      unrecoverable here (bad magic, absurd length, CRC mismatch, or a
      payload [Marshal] rejects). The decoded type is the caller's claim,
      exactly as with [Marshal.from_string]. *)

  val read : Unix.file_descr -> buf -> [ `Frame of 'a | `Eof | `Corrupt ]
  (** {!decode} the next record, blocking on the descriptor until one is
      complete or the peer closes it ([`Eof]). EINTR-safe. *)

  val write : Unix.file_descr -> 'a -> unit
  (** {!encode} then {!write_all}. *)

  val write_all : Unix.file_descr -> string -> unit
  (** Write a whole encoded string (blocking, EINTR-safe). *)

  val input : in_channel -> size:int -> 'a option
  (** [input ic ~size] reads the record at the position of [ic], a file
      of [size] bytes; [None] on a short, bad or corrupt record, as
      {!decode} judges one. The caller takes [size] once: asking a
      channel for its length costs two [lseek]s per record. *)
end

module Make (_ : sig
  val magic : string

  val closures : bool
  (** Whether payloads marshal with [Marshal.Closures]. *)
end) : S
