(* CRC-32 (IEEE 802.3, reflected, as used by gzip/zlib): the checksum of
   [Frame], the one record codec behind the scenario journal ("SJL1"),
   the shard pipe ("SHD1") and the service socket ("SRV1").

   The register is a plain [int] (63 bits wide, so the 32-bit value never
   overflows it) and the table an [int array]: an [Int32] register would
   be boxed on every byte. The table is built at module initialisation,
   not lazily: the first [digest] may come from two domains at once, and
   forcing one lazy from two domains raises [CamlinternalLazy.Undefined]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let subbytes b ofs len =
  if ofs < 0 || len < 0 || ofs > Bytes.length b - len then invalid_arg "Crc32.subbytes";
  let c = ref 0xFFFFFFFF in
  for i = ofs to ofs + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest s = subbytes (Bytes.unsafe_of_string s) 0 (String.length s)
