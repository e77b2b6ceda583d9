(** SRV1 wire protocol: message set and frame codec (see wire.mli). *)

let proto_version = 3

type spec = {
  seed : int;
  faults : string list;
  scenarios : int list;
  window : float option;
  retries : int;
}

type reject_reason =
  | Queue_full
  | Over_quota
  | Draining
  | Bad_spec of string

type request =
  | Hello of { proto : int; client : string }
  | Submit of { spec : spec; deadline_s : float option }
  | Stats
  | Drain

type response =
  | Welcome of { proto : int; server : string }
  | Accepted of { ticket : int; position : int; cells : int }
  | Rejected of {
      reason : reject_reason;
      retryable : bool;
      retry_after_s : float;
    }
  | Progress of { ticket : int; completed : int; total : int }
  | Result of { ticket : int; csv : string; durable : bool }
  | Failed of { ticket : int; reason : string }
  | Stats_reply of { json : string }
  | Draining_ack of { settled : int; checkpointed : int }

module Frame = Exec.Frame.Make (struct
  let magic = "SRV1"
  let closures = false
end)
