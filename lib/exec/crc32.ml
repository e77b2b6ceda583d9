(* CRC-32 (IEEE 802.3, reflected, as used by gzip/zlib): the checksum of
   [Frame], the one record codec behind the scenario journal ("SJL1"),
   the shard pipe ("SHD1") and the service socket ("SRV1").

   The table is built at module initialisation, not lazily: the first
   [digest] may come from two domains at once, and forcing one lazy from
   two domains raises [CamlinternalLazy.Undefined]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl
