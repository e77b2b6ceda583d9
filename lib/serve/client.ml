(** Client side of the campaign service (see client.mli). *)

type result = { ticket : int; csv : string; durable : bool }

(* Why an attempt must be retried. [Backpressure] is the server's typed
   [retryable] rejection — healthy saturation, resubmit after its hint,
   never charged against the attempt budget. [Transport] is a dead or
   corrupt connection (or an answer a fresh submission can fix); it
   costs an attempt and a fixed pause. The discriminant is carried as a
   variant end to end — no string comparison anywhere. *)
type retry_cause = Backpressure | Transport of string

(* Raising [Retry] unwinds to the retry loop, which reconnects and
   resubmits — safe because submission is idempotent by digest. *)
exception Retry of retry_cause

let connect socket =
  (* A server-side chaos drop (or plain crash) between our write and its
     read turns into EPIPE on this end; as a signal it would kill the
     process before the retry loop ever saw the failure. Setting the
     disposition is idempotent, so every connect does it: a lazy here
     would raise when first forced from two domains at once. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let recv fd buf =
  match Wire.Frame.read fd buf with
  | `Frame v -> v
  | `Corrupt -> raise (Retry (Transport "corrupt frame from server"))
  | `Eof -> raise (Retry (Transport "server closed the connection"))

(* Open a session (connect + hello/welcome) and run [k fd buf] on it,
   mapping every [Unix_error] into [Retry] so the caller's retry loop
   sees one failure currency. *)
let with_session ~socket k =
  match
    let fd = connect socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let buf = Wire.Frame.create () in
        Wire.Frame.write fd
          (Wire.Hello { proto = Wire.proto_version; client = "serve_client" });
        match recv fd buf with
        | Wire.Welcome _ -> k fd buf
        | _ -> raise (Retry (Transport "unexpected greeting")))
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
      raise (Retry (Transport (Unix.error_message e)))

let submit_and_wait ?(attempts = 10) ?(patience_s = 600.) ?deadline_s ?progress
    ~socket spec =
  let give_up_at = Obs.Clock.now () +. patience_s in
  let attempt () =
    with_session ~socket (fun fd buf ->
        Wire.Frame.write fd (Wire.Submit { spec; deadline_s });
        let rec wait () =
          match recv fd buf with
          | Wire.Accepted _ -> wait ()
          | Wire.Progress { completed; total; _ } ->
              Option.iter (fun h -> h ~completed ~total) progress;
              wait ()
          | Wire.Result { ticket; csv; durable } -> Ok { ticket; csv; durable }
          | Wire.Failed { reason; _ } -> Error reason
          | Wire.Rejected { retryable = true; retry_after_s; _ } ->
              (* Backpressure is advice, not failure: sleep the server's
                 load-scaled hint and resubmit. Deliberately outside the
                 [attempts] budget — a busy server is healthy, only
                 [patience_s] bounds how long we defer to it. *)
              Unix.sleepf (Float.max 0.05 retry_after_s);
              raise (Retry Backpressure)
          | Wire.Rejected { retryable = false; reason; _ } ->
              Error
                (match reason with
                | Wire.Draining -> "server is draining"
                | Wire.Bad_spec e -> e
                | Wire.Queue_full -> "rejected: queue full"
                | Wire.Over_quota -> "rejected: over quota")
          | Wire.Welcome _ | Wire.Stats_reply _ | Wire.Draining_ack _ ->
              raise (Retry (Transport "unexpected response"))
        in
        wait ())
  in
  let rec go budget =
    if Obs.Clock.now () > give_up_at then
      Error (Fmt.str "gave up after %.0fs of patience" patience_s)
    else
      match attempt () with
      | r -> r
      | exception Retry Backpressure -> go budget
      | exception Retry (Transport reason) ->
          if budget - 1 <= 0 then Error ("gave up: " ^ reason)
          else begin
            Unix.sleepf 0.5;
            go (budget - 1)
          end
  in
  go attempts

let one_shot ~socket rq handle =
  match
    with_session ~socket (fun fd buf ->
        Wire.Frame.write fd rq;
        handle (recv fd buf))
  with
  | r -> r
  | exception Retry Backpressure -> Error "rejected: server saturated"
  | exception Retry (Transport reason) -> Error reason

let stats ~socket =
  one_shot ~socket Wire.Stats (function
    | Wire.Stats_reply { json } -> Ok json
    | _ -> Error "unexpected response to stats")

let drain ~socket =
  one_shot ~socket Wire.Drain (function
    | Wire.Draining_ack { settled; checkpointed } -> Ok (settled, checkpointed)
    | _ -> Error "unexpected response to drain")
