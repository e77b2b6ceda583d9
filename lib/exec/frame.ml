(** The CRC-guarded record format (see frame.mli). *)

module type S = sig
  val header_len : int
  val encode : 'a -> string

  type buf

  val create : unit -> buf
  val feed : buf -> bytes -> int -> unit
  val length : buf -> int
  val decode : buf -> [ `Frame of 'a | `Need_more | `Corrupt ]
  val read : Unix.file_descr -> buf -> [ `Frame of 'a | `Eof | `Corrupt ]
  val write : Unix.file_descr -> 'a -> unit
  val write_all : Unix.file_descr -> string -> unit
  val input : in_channel -> size:int -> 'a option
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

  let header h =
    if Bytes.sub_string h 0 4 <> F.magic then None
    else
      let len = Int32.to_int (Bytes.get_int32_le h 4) in
      if len < 0 || len > max_payload then None
      else Some (len, Bytes.get_int32_le h 8)

  (* Catches only payloads [Marshal] itself rejects: a well-formed
     payload of another type decodes silently. *)
  let unmarshal payload crc =
    if Crc32.digest payload <> crc then None
    else try Some (Marshal.from_string payload 0) with _ -> None

  type buf = { mutable data : Bytes.t; mutable len : int }

  let create () = { data = Bytes.create 65536; len = 0 }
  let length b = b.len

  let feed b src n =
    if b.len + n > Bytes.length b.data then begin
      let cap = ref (Bytes.length b.data) in
      while b.len + n > !cap do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit b.data 0 data 0 b.len;
      b.data <- data
    end;
    Bytes.blit src 0 b.data b.len n;
    b.len <- b.len + n

  let consume b n =
    Bytes.blit b.data n b.data 0 (b.len - n);
    b.len <- b.len - n

  let decode b =
    if b.len < header_len then `Need_more
    else
      match header b.data with
      | None -> `Corrupt
      | Some (len, _) when b.len < header_len + len -> `Need_more
      | Some (len, crc) -> (
          let payload = Bytes.sub_string b.data header_len len in
          consume b (header_len + len);
          match unmarshal payload crc with
          | Some v -> `Frame v
          | None -> `Corrupt)

  let rec read fd b =
    match decode b with
    | (`Frame _ | `Corrupt) as r -> r
    | `Need_more -> (
        let chunk = Bytes.create 65536 in
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Eof
        | n ->
            feed b chunk n;
            read fd b
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

  let input ic ~size =
    let h = Bytes.create header_len in
    match really_input ic h 0 header_len with
    | exception End_of_file -> None
    | () -> (
        match header h with
        | Some (len, crc) when len <= size - pos_in ic -> (
            let payload = Bytes.create len in
            match really_input ic payload 0 len with
            | exception End_of_file -> None
            | () -> unmarshal (Bytes.unsafe_to_string payload) crc)
        | _ -> None)
end
