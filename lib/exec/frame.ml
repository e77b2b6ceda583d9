(** The CRC-guarded record format (see frame.mli). *)

module type S = sig
  val header_len : int
  val encode : 'a -> string

  type buf

  val create : unit -> buf
  val fill : Unix.file_descr -> buf -> int
  val feed : buf -> bytes -> int -> unit
  val length : buf -> int
  val decode : buf -> [ `Frame of 'a | `Need_more | `Corrupt ]
  val read : Unix.file_descr -> buf -> [ `Frame of 'a | `Eof | `Corrupt ]
  val write : Unix.file_descr -> 'a -> unit
  val write_all : Unix.file_descr -> string -> unit
end

module Make (F : sig
  val magic : string
  val closures : bool
end) : S = struct
  let header_len = 12

  (* A bit-flipped length field must surface as corruption, not as a
     multi-gigabyte allocation. *)
  let max_payload = 1 lsl 28
  let flags = if F.closures then [ Marshal.Closures ] else []
  let magic = Int32.to_int (String.get_int32_le F.magic 0)

  let encode v =
    let payload = Marshal.to_string v flags in
    if String.length payload > max_payload then
      invalid_arg (Printf.sprintf "Frame.encode (%s): payload too large" F.magic);
    let b = Buffer.create (header_len + String.length payload) in
    Buffer.add_string b F.magic;
    Buffer.add_int32_le b (Int32.of_int (String.length payload));
    Buffer.add_int32_le b (Crc32.digest payload);
    Buffer.add_string b payload;
    Buffer.contents b

  (* The payload length and CRC of the header at [off]; [None] for another
     stream's magic or a length past the guard. *)
  let header h off =
    if Int32.to_int (Bytes.get_int32_le h off) <> magic then None
    else
      let len = Int32.to_int (Bytes.get_int32_le h (off + 4)) in
      if len < 0 || len > max_payload then None
      else Some (len, Bytes.get_int32_le h (off + 8))

  (* The payload at [data.[off .. off + len - 1]], checked where it lies:
     the CRC over the range, then a [Marshal] image that fills exactly the
     declared length, so unmarshalling never reads past the record.
     Catches only payloads [Marshal] itself rejects: a well-formed payload
     of another type decodes silently. *)
  let unmarshal data off len crc =
    try
      if
        len >= Marshal.header_size
        && Int32.equal (Crc32.subbytes data off len) crc
        && Marshal.total_size data off = len
      then Some (Marshal.from_bytes data off)
      else None
    with _ -> None

  (* The undecoded bytes are [data.[pos .. len - 1]]: [decode] moves the
     cursor [pos] past each record instead of copying the rest down. *)
  type buf = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

  (* 1 KB stays under the minor heap's 256-word limit (see frame.mli). *)
  let create () = { data = Bytes.create 1024; pos = 0; len = 0 }
  let length b = b.len - b.pos

  (* Room for [extra] more bytes at the fill level. The undecoded bytes
     move to the front when the record they begin fits the buffer, as far
     as its header tells; otherwise the buffer grows to at most twice its
     size, and to no more than that record needs, so it never exceeds
     twice the bytes its stream has delivered (or 1 KB). *)
  let reserve b extra =
    let cap = Bytes.length b.data in
    if b.len + extra > cap then begin
      let live = b.len - b.pos in
      let record =
        if live < header_len then header_len
        else
          match header b.data b.pos with
          | Some (len, _) -> header_len + len
          | None -> 0
      in
      let need = max record (live + extra) in
      let data =
        if need <= cap then b.data
        else Bytes.create (max (live + extra) (min need (2 * cap)))
      in
      Bytes.blit b.data b.pos data 0 live;
      b.data <- data;
      b.pos <- 0;
      b.len <- live
    end

  let fill fd b =
    reserve b 1;
    let n = Unix.read fd b.data b.len (Bytes.length b.data - b.len) in
    b.len <- b.len + n;
    n

  let feed b src n =
    reserve b n;
    Bytes.blit src 0 b.data b.len n;
    b.len <- b.len + n

  let decode b =
    let live = b.len - b.pos in
    if live < header_len then `Need_more
    else
      match header b.data b.pos with
      | None -> `Corrupt
      | Some (len, _) when live < header_len + len -> `Need_more
      | Some (len, crc) -> (
          let v = unmarshal b.data (b.pos + header_len) len crc in
          b.pos <- b.pos + header_len + len;
          if b.pos = b.len then begin
            b.pos <- 0;
            b.len <- 0
          end;
          match v with Some v -> `Frame v | None -> `Corrupt)

  let rec read fd b =
    match decode b with
    | (`Frame _ | `Corrupt) as r -> r
    | `Need_more -> (
        match fill fd b with
        | 0 -> `Eof
        | _ -> read fd b
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read fd b)

  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let n = String.length s in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let write fd v = write_all fd (encode v)
end
