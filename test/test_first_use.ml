(** First use from many domains at once. A module-level [lazy] raises
    [CamlinternalLazy.Undefined] when two domains force it together, and
    that race exists only on the first use in a process — so this is its
    own executable, and racing is the first thing it does. *)

let domains = 8

(* Run [f] on [domains] domains released together; each outcome is the
   value or the printed exception. *)
let race f =
  let go = Atomic.make false in
  let ds =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            match f () with
            | v -> Ok v
            | exception e -> Error (Printexc.to_string e)))
  in
  Atomic.set go true;
  List.map Domain.join ds

let missing_socket =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "no-daemon-%d.sock" (Unix.getpid ()))

(* A short run of scenario 1, built before the race: the race is over
   the first use of the Table 5.3 plan, not over the simulation. *)
let monitored_trace =
  let s = Scenarios.Defs.get 1 in
  Vehicle.System.run ~duration:2.0 ~objects:s.Scenarios.Defs.objects
    ~events:s.Scenarios.Defs.events ()

let monitor_outcomes =
  race (fun () -> Marshal.to_string (Vehicle.Monitors.run monitored_trace) [])

let crc_outcomes = race (fun () -> Exec.Crc32.digest "123456789")
let stats_outcomes = race (fun () -> Serve.Client.stats ~socket:missing_socket)

let test_crc32 () =
  List.iter
    (function
      | Ok d -> Alcotest.(check int32) "CRC-32 check vector" 0xCBF43926l d
      | Error e -> Alcotest.failf "digest raised: %s" e)
    crc_outcomes

let test_monitors () =
  let expected = Marshal.to_string (Vehicle.Monitors.run monitored_trace) [] in
  List.iter
    (function
      | Ok r -> Alcotest.(check bool) "same results as one domain" true (r = expected)
      | Error e -> Alcotest.failf "Monitors.run raised: %s" e)
    monitor_outcomes

let test_client_stats () =
  List.iter
    (function
      | Ok (Error _) -> ()
      | Ok (Ok _) -> Alcotest.fail "stats answered from a missing socket"
      | Error e -> Alcotest.failf "stats raised: %s" e)
    stats_outcomes

let () =
  Alcotest.run "first_use"
    [
      ( "race",
        [
          Alcotest.test_case "crc32 from 8 domains at once" `Quick test_crc32;
          Alcotest.test_case "client on a missing socket from 8 domains" `Quick
            test_client_stats;
          Alcotest.test_case "Table 5.3 monitors from 8 domains at once" `Quick
            test_monitors;
        ] );
    ]
