(** The one record codec ({!Exec.Frame}) under all three of its
    instances — the shard pipe (SHD1), the service socket (SRV1) and the
    scenario journal (SJL1): chunked round-trips, records up to 200 KB
    read in place through a socketpair and fed in random chunks,
    truncation, single-bit flips, cross-stream isolation, payloads whose
    [Marshal] image does not fill them, buffer growth under a lone
    header, the exact bytes the shard pipe and the journal put on the
    wire and on disk, and the CRC-32 that guards every record against a
    bit-at-a-time reference. *)

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

(* ------------------------------------------------------------------ *)
(* In-place reading: records small and large, split anywhere            *)

(* Payload strings from empty to well past the 64 KB a single [read]
   returns, so a record can span many reads and a read many records. *)
let big_value_arb : value QCheck.arbitrary =
  let open QCheck.Gen in
  let len =
    frequency
      [ (3, 0 -- 64); (2, 0 -- 4096); (2, 60_000 -- 70_000); (1, 70_000 -- 200_000) ]
  in
  QCheck.make
    ~print:(fun (i, s, fs) ->
      Printf.sprintf "(%d, <%d bytes>, <%d floats>)" i (String.length s) (List.length fs))
    (triple int (string_size ~gen:char len) (small_list float))

(* Chunk sizes from one byte to several records' worth. *)
let splits_arb =
  QCheck.(
    list_of_size
      Gen.(1 -- 8)
      (make Gen.(frequency [ (3, 1 -- 16); (3, 1 -- 4096); (2, 1 -- 400_000) ])))

(* Write [stream] into one end of a socketpair in the given chunk sizes,
   from another domain, while [read] drains the other end. *)
let through_socket stream sizes read =
  (* A reader that fails closes its end under the writer: EPIPE, not a
     fatal signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r, w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Domain.spawn (fun () ->
        let sizes = Array.of_list sizes in
        let rec go off i =
          if off < String.length stream then begin
            let n = min sizes.(i mod Array.length sizes) (String.length stream - off) in
            ignore (Unix.write_substring w stream off n : int);
            go (off + n) (i + 1)
          end
        in
        Fun.protect ~finally:(fun () -> Unix.close w) (fun () -> go 0 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      try Domain.join writer with Unix.Unix_error _ -> ())
    (fun () -> read r)

let prop_in_place_reader { name; codec } =
  let module F = (val codec : Exec.Frame.S) in
  let name = name ^ " fill, read and feed agree on records up to 200 KB" in
  let arb =
    QCheck.(triple (list_of_size Gen.(0 -- 6) big_value_arb) splits_arb splits_arb)
  in
  QCheck.Test.make ~name ~count:25 arb (fun (values, write_sizes, feed_sizes) ->
      let stream = String.concat "" (List.map F.encode values) in
      let corrupt path =
        QCheck.Test.fail_reportf "%s: valid stream decoded as corrupt" path
      in
      (* [read] until end of stream. *)
      let by_read fd =
        let buf = F.create () in
        let rec go acc =
          match F.read fd buf with
          | `Frame (v : value) -> go (v :: acc)
          | `Eof -> (List.rev acc, F.length buf)
          | `Corrupt -> corrupt "read"
        in
        go []
      in
      (* Every record complete in [buf], consed onto [acc]. *)
      let rec drain path buf acc =
        match F.decode buf with
        | `Frame (v : value) -> drain path buf (v :: acc)
        | `Need_more -> acc
        | `Corrupt -> corrupt path
      in
      (* [fill], then [decode] everything complete, as the daemon and
         the shard coordinator do. *)
      let by_fill fd =
        let buf = F.create () in
        let rec go acc =
          match F.fill fd buf with
          | 0 -> (List.rev acc, F.length buf)
          | _ -> go (drain "fill" buf acc)
        in
        go []
      in
      let by_feed () =
        let buf = F.create () in
        let sizes = Array.of_list feed_sizes in
        let rec go off i acc =
          if off >= String.length stream then (List.rev acc, F.length buf)
          else
            let n = min sizes.(i mod Array.length sizes) (String.length stream - off) in
            F.feed buf (Bytes.of_string (String.sub stream off n)) n;
            go (off + n) (i + 1) (drain "feed" buf acc)
        in
        go 0 0 []
      in
      List.for_all
        (fun (decoded, left) -> left = 0 && List.equal same values decoded)
        [
          through_socket stream write_sizes by_read;
          through_socket stream write_sizes by_fill;
          by_feed ();
        ])

(* A record around [payload], CRC and all, whatever the payload holds. *)
let with_payload magic payload =
  let b = Buffer.create (12 + String.length payload) in
  Buffer.add_string b magic;
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Exec.Crc32.digest payload);
  Buffer.add_string b payload;
  Buffer.contents b

let test_image_must_fill_the_payload { name; codec } () =
  let module F = (val codec : Exec.Frame.S) in
  let image = Marshal.to_string ((7, "seven", [ 7. ]) : value) [] in
  let next = F.encode ((8, "eight", []) : value) in
  let expect_corrupt label payload =
    (* The next record follows in the same buffer: an image longer than
       its payload would otherwise be read on into it. *)
    let buf = F.create () in
    let s = with_payload name payload ^ next in
    F.feed buf (Bytes.of_string s) (String.length s);
    match (F.decode buf : [ `Frame of value | `Need_more | `Corrupt ]) with
    | `Corrupt -> ()
    | `Frame _ -> Alcotest.failf "%s decoded" label
    | `Need_more -> Alcotest.failf "%s needs more" label
  in
  expect_corrupt "image cut short" (String.sub image 0 (String.length image - 3));
  expect_corrupt "image with bytes after it" (image ^ "xyz");
  expect_corrupt "payload shorter than a Marshal header" (String.sub image 0 10);
  expect_corrupt "empty payload" "";
  let buf = F.create () in
  let s = with_payload name image in
  F.feed buf (Bytes.of_string s) (String.length s);
  match (F.decode buf : [ `Frame of value | `Need_more | `Corrupt ]) with
  | `Frame v ->
      Alcotest.(check bool) "the exact image decodes" true (same v (7, "seven", [ 7. ]))
  | _ -> Alcotest.fail "the exact image must decode"

(* A header declaring the 256 MiB maximum, followed by a trickle of
   bytes: the buffer grows with what arrives, not with what the header
   promises. Any client of the daemon's socket can send this. *)
let test_lone_header_allocates_as_received { name; codec } () =
  let module F = (val codec : Exec.Frame.S) in
  let header = Bytes.create 12 in
  Bytes.blit_string name 0 header 0 4;
  Bytes.set_int32_le header 4 (Int32.of_int (1 lsl 28));
  Bytes.set_int32_le header 8 0l;
  let received = 12 + 100_000 in
  let bounded label allocate =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    allocate ();
    Gc.minor ();
    let bytes = 8. *. ((Gc.quick_stat ()).Gc.major_words -. before) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f B allocated for %d B received" label bytes received)
      true
      (bytes < float_of_int (4 * received))
  in
  bounded "feed" (fun () ->
      let buf = F.create () in
      F.feed buf header 12;
      let chunk = Bytes.make 1000 'x' in
      for _ = 1 to 100 do
        F.feed buf chunk 1000;
        match F.decode buf with
        | `Need_more -> ()
        | `Frame () | `Corrupt -> Alcotest.fail "a partial record must need more"
      done;
      Alcotest.(check int) "all bytes held" received (F.length buf));
  let stream = Bytes.to_string header ^ String.make 100_000 'x' in
  bounded "fill" (fun () ->
      through_socket stream [ 4096 ] (fun fd ->
          let buf = F.create () in
          let rec go () =
            match F.fill fd buf with
            | 0 -> ()
            | _ -> (
                match F.decode buf with
                | `Need_more -> go ()
                | `Frame () | `Corrupt -> Alcotest.fail "a partial record must need more")
          in
          go ();
          Alcotest.(check int) "all bytes held" received (F.length buf)))

(* The journal folds its records off a descriptor with the in-place
   reader: a file cut anywhere yields exactly the records wholly before
   the cut, the offset just past them as the valid length, and the rest
   of the file as dropped bytes. *)
let prop_journal_fold_cut =
  let module R = Scenarios.Journal.Record in
  let arb = QCheck.(pair values_arb (int_range 0 1000)) in
  QCheck.Test.make ~name:"SJL1 fold stops at a cut" ~count:50 arb (fun (values, cut) ->
      let entries = List.mapi (fun i v -> (string_of_int i, v)) values in
      let records = List.map R.encode entries in
      let file = String.concat "" records in
      let cut = cut mod (String.length file + 1) in
      let rec intact acc off = function
        | (r, e) :: rest when off + String.length r <= cut ->
            intact (e :: acc) (off + String.length r) rest
        | _ -> (List.rev acc, off)
      in
      let expected, valid = intact [] 0 (List.combine records entries) in
      let path = Filename.temp_file "frame_test_" ".jnl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub file 0 cut));
          let read, stats =
            Scenarios.Journal.fold path ~init:[] ~f:(fun acc k (v : value) ->
                (k, v) :: acc)
          in
          let same_entry (k, v) (k', v') = k = k' && same v v' in
          List.equal same_entry expected (List.rev read)
          && stats.Scenarios.Journal.fold_records = List.length expected
          && stats.Scenarios.Journal.fold_valid_bytes = valid
          && stats.Scenarios.Journal.fold_dropped_bytes = cut - valid))

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

let prop_crc32_range =
  QCheck.Test.make ~name:"range digest = digest of the substring" ~count:500
    QCheck.(triple (string_of_size Gen.(0 -- 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let ofs = if s = "" then 0 else a mod (String.length s + 1) in
      let len = b mod (String.length s - ofs + 1) in
      Int32.equal
        (Exec.Crc32.subbytes (Bytes.of_string s) ofs len)
        (Exec.Crc32.digest (String.sub s ofs len)))

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
      match Scenarios.Journal.fold path ~init:[] ~f:(fun acc k v -> (k, v) :: acc) with
      | [ ("cell", v) ], _ -> Alcotest.(check (pair int string)) "replays" (3, "abc") v
      | _ -> Alcotest.fail "expected the one record back")

let () =
  let each prop = List.map (fun c -> QCheck_alcotest.to_alcotest (prop c)) codecs in
  Alcotest.run "frame"
    [
      ("round-trip", each prop_chunked_round_trip);
      ("truncation", each prop_prefix_needs_more);
      ("bit flips", each prop_bit_flip_never_decodes);
      ("stream isolation", each prop_foreign_magic_corrupt);
      ("in-place reader", each prop_in_place_reader);
      ( "exact images",
        List.map
          (fun c ->
            Alcotest.test_case (c.name ^ " image must fill its payload") `Quick
              (test_image_must_fill_the_payload c))
          codecs );
      ( "growth",
        List.map
          (fun c ->
            Alcotest.test_case (c.name ^ " lone 256 MiB header") `Quick
              (test_lone_header_allocates_as_received c))
          codecs );
      ("journal reader", [ QCheck_alcotest.to_alcotest prop_journal_fold_cut ]);
      ( "crc32",
        [
          QCheck_alcotest.to_alcotest prop_crc32_reference;
          QCheck_alcotest.to_alcotest prop_crc32_range;
          Alcotest.test_case "empty string and check value" `Quick
            test_crc32_known_values;
        ] );
      ( "golden bytes",
        [
          Alcotest.test_case "one small value per magic" `Quick test_golden_frames;
          Alcotest.test_case "one-record journal file" `Quick test_golden_journal_file;
        ] );
    ]
