(** The one record codec ({!Exec.Frame}) under all three of its
    instances — the shard pipe (SHD1), the service socket (SRV1) and the
    scenario journal (SJL1): chunked round-trips, truncation, single-bit
    flips, cross-stream isolation, the exact bytes the shard pipe and the
    journal put on the wire and on disk, and the CRC-32 that guards every
    record against a bit-at-a-time reference. *)

type codec = { name : string; codec : (module Exec.Frame.S) }

let codecs =
  [
    { name = "SHD1"; codec = (module Exec.Shard.Frame) };
    { name = "SRV1"; codec = (module Serve.Wire.Frame) };
    { name = "SJL1"; codec = (module Scenarios.Journal.Record) };
  ]

(* Closure-free data of the shapes the streams carry: ints, strings and
   floats (NaN included, hence [compare] rather than [=]). *)
type value = int * string * float list

let value_arb : value QCheck.arbitrary =
  QCheck.(triple int small_string (small_list float))

let same (a : value) b = compare a b = 0
let values_arb = QCheck.list_of_size QCheck.Gen.(1 -- 4) value_arb

let decode_string codec s : [ `Frame of value | `Need_more | `Corrupt ] =
  let module F = (val codec : Exec.Frame.S) in
  let buf = F.create () in
  F.feed buf (Bytes.of_string s) (String.length s);
  F.decode buf

let prop_chunked_round_trip { name; codec } =
  let module F = (val codec : Exec.Frame.S) in
  let name = name ^ " stream round-trips in random chunks" in
  let arb = QCheck.(pair values_arb (small_list (int_range 1 64))) in
  QCheck.Test.make ~name ~count:200 arb (fun (values, sizes) ->
      let stream = String.concat "" (List.map F.encode values) in
      let sizes = Array.of_list (if sizes = [] then [ 1 ] else sizes) in
      let buf = F.create () in
      let decoded = ref [] in
      let rec drain () =
        match F.decode buf with
        | `Frame (v : value) ->
            decoded := v :: !decoded;
            drain ()
        | `Need_more -> ()
        | `Corrupt -> QCheck.Test.fail_report "valid stream decoded as corrupt"
      in
      let rec go off i =
        if off < String.length stream then begin
          let n = min sizes.(i mod Array.length sizes) (String.length stream - off) in
          F.feed buf (Bytes.of_string (String.sub stream off n)) n;
          drain ();
          go (off + n) (i + 1)
        end
      in
      go 0 0;
      F.length buf = 0 && List.equal same values (List.rev !decoded))

let prop_prefix_needs_more { name; codec } =
  let module F = (val codec : Exec.Frame.S) in
  let name = name ^ " every strict prefix needs more" in
  QCheck.Test.make ~name ~count:100 value_arb (fun v ->
      let frame = F.encode v in
      List.for_all
        (fun cut ->
          match decode_string codec (String.sub frame 0 cut) with
          | `Need_more -> true
          | `Frame _ | `Corrupt -> false)
        (List.init (String.length frame) Fun.id))

let prop_bit_flip_never_decodes { name; codec } =
  let module F = (val codec : Exec.Frame.S) in
  let name = name ^ " no single-bit flip decodes" in
  QCheck.Test.make ~name ~count:30 value_arb (fun v ->
      let frame = F.encode v in
      List.for_all
        (fun bit ->
          let b = Bytes.of_string frame in
          let i = bit / 8 and mask = 1 lsl (bit mod 8) in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
          match decode_string codec (Bytes.to_string b) with
          | `Frame _ -> false
          | `Need_more | `Corrupt -> true)
        (List.init (8 * String.length frame) Fun.id))

let prop_foreign_magic_corrupt { name; codec } =
  let module F = (val codec : Exec.Frame.S) in
  let label = name ^ " frames are corrupt to the other decoders" in
  QCheck.Test.make ~name:label ~count:50 value_arb (fun v ->
      let frame = F.encode v in
      List.for_all
        (fun other ->
          match decode_string other.codec frame with
          | `Corrupt -> true
          | `Frame _ | `Need_more -> false)
        (List.filter (fun other -> other.name <> name) codecs))

(* The journal reads its records off an [in_channel]: a file cut
   anywhere yields exactly the records wholly before the cut. *)
let prop_journal_input_cut =
  let module R = Scenarios.Journal.Record in
  let arb = QCheck.(pair values_arb (int_range 0 1000)) in
  QCheck.Test.make ~name:"SJL1 channel reader stops at a cut" ~count:50 arb
    (fun (values, cut) ->
      let records = List.map R.encode values in
      let file = String.concat "" records in
      let cut = cut mod (String.length file + 1) in
      let rec intact acc off = function
        | (r, v) :: rest when off + String.length r <= cut ->
            intact (v :: acc) (off + String.length r) rest
        | _ -> List.rev acc
      in
      let path = Filename.temp_file "frame_test_" ".jnl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub file 0 cut));
          let read =
            In_channel.with_open_bin path (fun ic ->
                let rec go acc =
                  match (R.input ic ~size:cut : value option) with
                  | Some v -> go (v :: acc)
                  | None -> List.rev acc
                in
                go [])
          in
          List.equal same (intact [] 0 (List.combine records values)) read))

(* ------------------------------------------------------------------ *)
(* CRC-32 against a bit-at-a-time reference                            *)

(* The reflected IEEE 802.3 CRC one bit at a time, straight from the
   polynomial: no table, no shortcuts. *)
let crc32_reference s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 1 to 8 do
        let low = Int32.logand !c 1l <> 0l in
        c := Int32.shift_right_logical !c 1;
        if low then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.logxor !c 0xFFFFFFFFl

let prop_crc32_reference =
  QCheck.Test.make ~name:"digest = bit-at-a-time reference" ~count:500
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s -> Int32.equal (Exec.Crc32.digest s) (crc32_reference s))

let test_crc32_known_values () =
  Alcotest.(check int32) "empty string" (crc32_reference "") (Exec.Crc32.digest "");
  Alcotest.(check int32) "IEEE 802.3 check value" 0xCBF43926l
    (Exec.Crc32.digest "123456789")

(* ------------------------------------------------------------------ *)
(* Golden bytes, recorded before the three codecs became one           *)

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let golden_shd1 =
  "534844311e000000af219af28495a6be0000000a000000020000000600000005a06a277061796c6f6164"

let golden_sjl1 =
  "534a4c3120000000bf0c61018495a6be0000000c000000040000000b0000000aa02463656c6ca04323616263"

let test_golden_frames () =
  Alcotest.(check string)
    "SHD1 bytes" golden_shd1
    (hex (Exec.Shard.Frame.encode (42, "payload")));
  Alcotest.(check string)
    "SJL1 bytes" golden_sjl1
    (hex (Scenarios.Journal.Record.encode ("cell", (3, "abc"))))

let test_golden_journal_file () =
  let path = Filename.temp_file "frame_test_" ".jnl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenarios.Journal.with_writer ~fresh:true path (fun w ->
          Scenarios.Journal.append w ~key:"cell" (3, "abc"));
      Alcotest.(check string)
        "file bytes" golden_sjl1
        (hex (In_channel.with_open_bin path In_channel.input_all));
      match (Scenarios.Journal.replay path).Scenarios.Journal.entries with
      | [ ("cell", v) ] -> Alcotest.(check (pair int string)) "replays" (3, "abc") v
      | _ -> Alcotest.fail "expected the one record back")

let () =
  let each prop = List.map (fun c -> QCheck_alcotest.to_alcotest (prop c)) codecs in
  Alcotest.run "frame"
    [
      ("round-trip", each prop_chunked_round_trip);
      ("truncation", each prop_prefix_needs_more);
      ("bit flips", each prop_bit_flip_never_decodes);
      ("stream isolation", each prop_foreign_magic_corrupt);
      ("journal reader", [ QCheck_alcotest.to_alcotest prop_journal_input_cut ]);
      ( "crc32",
        [
          QCheck_alcotest.to_alcotest prop_crc32_reference;
          Alcotest.test_case "empty string and check value" `Quick
            test_crc32_known_values;
        ] );
      ( "golden bytes",
        [
          Alcotest.test_case "one small value per magic" `Quick test_golden_frames;
          Alcotest.test_case "one-record journal file" `Quick test_golden_journal_file;
        ] );
    ]
