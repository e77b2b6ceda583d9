(** Shared-trace store (see trace_store.mli). *)

open Tl

let m_hits = Obs.Metrics.counter "trace_store.hits"
let m_misses = Obs.Metrics.counter "trace_store.misses"
let m_bytes = Obs.Metrics.counter "trace_store.bytes"

(* The bound is in bytes, not entries: a packed trace of one 20 s run
   takes from 0.2 to 3 MB depending on how many of its columns hold one
   value, so a count of traces would leave the store's memory, and a
   long-lived daemon's peak RSS, to the scenarios it happens to be asked
   for. *)
let budget_bytes = 64 * 1024 * 1024

(* The underlying memo table: single-flight, FIFO-bounded by the summed
   [Trace.approx_bytes] of its traces. The store's own [trace_store.*]
   counters are maintained here rather than via [Memo]'s [~name] mirror
   because a byte count must ride along with each miss. *)
let store : (string, Trace.t * Vehicle.Monitors.result list) Exec.Memo.t =
  let weight (trace, _) = Trace.approx_bytes trace in
  Exec.Memo.create ~capacity:budget_bytes ~weight ()

let find_or_simulate key supply =
  let ran = ref false in
  let v =
    Exec.Memo.find_or_add store key (fun () ->
        ran := true;
        let ((trace, _) as v) = supply () in
        Obs.Metrics.incr ~by:(Trace.approx_bytes trace) m_bytes;
        v)
  in
  Obs.Metrics.incr (if !ran then m_misses else m_hits);
  v

let stats () = Exec.Memo.stats store
let clear () = Exec.Memo.clear store
