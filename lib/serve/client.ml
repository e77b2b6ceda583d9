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

let m_opened = Obs.Metrics.counter "serve.client.sessions_opened"
let m_reused = Obs.Metrics.counter "serve.client.sessions_reused"
let m_reconnects = Obs.Metrics.counter "serve.client.reconnects"

(* A greeted connection. [heard] says whether a frame has arrived since
   the current call took the session: a kept session that fails before
   it hears anything was dead before the call began. *)
type session = {
  fd : Unix.file_descr;
  buf : Wire.Frame.buf;
  pid : int;  (** the process that opened it *)
  mutable heard : bool;
}

let close s = try Unix.close s.fd with Unix.Unix_error _ -> ()

(* This domain's kept sessions, at most one per socket path. A call takes
   its session out of the table, so a nested call opens its own. *)
let kept : (string, session) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 4 in
      Domain.at_exit (fun () ->
          Hashtbl.iter (fun _ s -> close s) tbl;
          Hashtbl.reset tbl);
      tbl)

let connect socket =
  (* A server-side chaos drop (or plain crash) between our write and its
     read turns into EPIPE on this end; as a signal it would kill the
     process before the retry loop ever saw the failure. Setting the
     disposition is idempotent, so every connect does it: a lazy here
     would raise when first forced from two domains at once. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Close-on-exec: a kept descriptor inherited by a process spawned
     later would hold the connection open after this one lets it go. *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let recv s =
  match Wire.Frame.read s.fd s.buf with
  | `Frame v ->
      s.heard <- true;
      v
  | `Corrupt -> raise (Retry (Transport "corrupt frame from server"))
  | `Eof -> raise (Retry (Transport "server closed the connection"))

(* Run [f], mapping every [Unix_error] into [Retry] so the caller's retry
   loop sees one failure currency. *)
let transport f =
  try f ()
  with Unix.Unix_error (e, _, _) -> raise (Retry (Transport (Unix.error_message e)))

let refusal = function
  | Wire.Draining -> "server is draining"
  | Wire.Bad_spec e -> e
  | Wire.Queue_full -> "rejected: queue full"
  | Wire.Over_quota -> "rejected: over quota"

(* Connect and greet. A daemon that refuses the greeting for good (one
   of another protocol generation) ends the call with its reason:
   reconnecting cannot change its answer. *)
let greet socket =
  let s =
    {
      fd = connect socket;
      buf = Wire.Frame.create ();
      pid = Unix.getpid ();
      heard = false;
    }
  in
  match
    Wire.Frame.write s.fd
      (Wire.Hello { proto = Wire.proto_version; client = "serve_client" });
    recv s
  with
  | Wire.Welcome _ ->
      Obs.Metrics.incr m_opened;
      Ok s
  | Wire.Rejected { retryable = false; reason; _ } ->
      close s;
      Error (refusal reason)
  | _ ->
      close s;
      raise (Retry (Transport "unexpected greeting"))
  | exception e ->
      close s;
      raise e

(* Run [k] on this domain's session to [socket], greeting a new one if
   none is kept. The session is kept again only after [k] returns — a
   terminal answer — with no bytes left unread, and unless [keep] is
   false; any exception closes it. A kept session that fails before it
   hears a frame is replaced at once by a new one, uncharged: a daemon
   restarted since the session was opened looks exactly like that. *)
let with_session ?(keep = true) ~socket k =
  let tbl = Domain.DLS.get kept in
  let run s =
    s.heard <- false;
    match transport (fun () -> k s) with
    | r ->
        if keep && Wire.Frame.length s.buf = 0 && not (Hashtbl.mem tbl socket) then
          Hashtbl.replace tbl socket s
        else close s;
        r
    | exception e ->
        close s;
        raise e
  in
  let fresh () =
    match transport (fun () -> greet socket) with Ok s -> run s | Error e -> Error e
  in
  match Hashtbl.find_opt tbl socket with
  | None -> fresh ()
  | Some s when s.pid <> Unix.getpid () ->
      Hashtbl.remove tbl socket;
      close s;
      fresh ()
  | Some s -> (
      Hashtbl.remove tbl socket;
      Obs.Metrics.incr m_reused;
      match run s with
      | r -> r
      | exception Retry (Transport _) when not s.heard ->
          Obs.Metrics.incr m_reconnects;
          fresh ())

let submit_and_wait ?(attempts = 10) ?(patience_s = 600.) ?deadline_s ?progress
    ~socket spec =
  let give_up_at = Obs.Clock.now () +. patience_s in
  let attempt () =
    with_session ~socket (fun s ->
        Wire.Frame.write s.fd (Wire.Submit { spec; deadline_s });
        let rec wait () =
          match recv s with
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
          | Wire.Rejected { retryable = false; reason; _ } -> Error (refusal reason)
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

let one_shot ?keep ~socket rq handle =
  match
    with_session ?keep ~socket (fun s ->
        Wire.Frame.write s.fd rq;
        handle (recv s))
  with
  | r -> r
  | exception Retry (Transport reason) -> Error reason

let stats ~socket =
  one_shot ~socket Wire.Stats (function
    | Wire.Stats_reply { json } -> Ok json
    | _ -> raise (Retry (Transport "unexpected response to stats")))

let drain ~socket =
  one_shot ~keep:false ~socket Wire.Drain (function
    | Wire.Draining_ack { settled; checkpointed } -> Ok (settled, checkpointed)
    | _ -> raise (Retry (Transport "unexpected response to drain")))
