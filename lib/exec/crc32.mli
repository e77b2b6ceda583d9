(** CRC-32 checksums for framed binary records.

    This is the IEEE 802.3 reflected CRC-32 (polynomial [0xEDB88320], the
    variant used by gzip and zlib), computed over whole strings.
    {!Frame}, the one record codec in the repository, uses it to guard
    every payload on its three streams: the crash-safe scenario journal
    ([Scenarios.Journal], magic ["SJL1"]), the multi-process shard pipe
    ({!Shard}, magic ["SHD1"]) and the campaign service socket
    ([Serve.Wire], magic ["SRV1"]). A torn or bit-flipped payload fails
    its CRC and the record is dropped by the reader instead of being
    unmarshalled into garbage. Readers check records in place, inside
    their stream buffer, through {!subbytes}. *)

val digest : string -> int32
(** [digest s] is the CRC-32 of the whole of [s].

    The result is returned as a raw [int32] so it can be written to and
    compared against the little-endian [u32] checksum field of a record
    header without sign-extension concerns. Deterministic: equal strings
    have equal digests across processes and architectures. *)

val subbytes : bytes -> int -> int -> int32
(** [subbytes b ofs len] is the CRC-32 of the [len] bytes of [b] starting
    at [ofs]: the {!digest} of [Bytes.sub_string b ofs len], without the
    copy.

    @raise Invalid_argument if [ofs] and [len] do not designate a valid
    range of [b]. *)
