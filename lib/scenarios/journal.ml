(** Crash-safe, append-only result journal (see journal.mli).

    Each record is one {!Exec.Frame} record with magic ["SJL1"], whose
    payload is [Marshal.to_string (key, value) []], written and read
    through {!Record} on a descriptor. A replay accepts the longest valid
    prefix of records and drops the rest: a record can only be torn by a
    crash mid-append, and append order means nothing after the tear can
    be intact anyway. *)

module Record = Exec.Frame.Make (struct
  let magic = "SJL1"
  let closures = false
end)

let crc32 = Exec.Crc32.digest

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)

type 'a writer = {
  fd : Unix.file_descr;
  path : string;
  lock : Mutex.t;  (** appends may come from pool worker domains *)
  fault : ([ `Write | `Fsync ] -> bool) option;
      (** the writer's own hook derived from its chaos plan
          ({!Exec.Chaos.journal_fault}): consulted once per append for
          [`Write] (fail mid-record) and once for [`Fsync] *)
  mutable closed : bool;
  mutable degraded : bool;
}

(* Telemetry: append/byte volume and the cost of durability. fsync
   dominates the journal's overhead, so its latency gets a histogram of
   its own — p95 here is the honest per-cell price of crash safety.
   write_errors counts appends that failed at the device (injected or
   real); appends_dropped the appends skipped after a writer degraded. *)
let m_appends = Obs.Metrics.counter "journal.appends"
let m_bytes = Obs.Metrics.counter "journal.bytes"
let m_replays = Obs.Metrics.counter "journal.replays"
let m_write_errors = Obs.Metrics.counter "journal.write_errors"
let m_dropped = Obs.Metrics.counter "journal.appends_dropped"
let m_repaired = Obs.Metrics.counter "journal.repaired_bytes"
let h_fsync = Obs.Metrics.histogram "journal.fsync_s"

let create ?(fresh = false) ?(chaos = Exec.Chaos.none) path =
  let mode = if fresh then Unix.O_TRUNC else Unix.O_APPEND in
  {
    fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC; mode ] 0o644;
    path;
    lock = Mutex.create ();
    fault = Exec.Chaos.journal_fault chaos;
    closed = false;
    degraded = false;
  }

let degraded w = w.degraded

let append w ~key v =
  (* No [Closures] flag: a closure's image is only valid inside the binary
     that wrote it, so a closure-carrying value is refused here — before
     any byte reaches the file — by [Marshal]'s own [Invalid_argument]. *)
  let record = Record.encode (key, v) in
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if w.closed then invalid_arg "Journal.append: writer is closed";
      if w.degraded then
        (* Degradation is terminal for the file, not just the append:
           replay stops at the first invalid record, so once an append
           tore mid-file no later record would ever be replayed — writing
           more would only fake durability the resume path cannot see. *)
        Obs.Metrics.incr m_dropped
      else
        let fault op = match w.fault with Some h -> h op | None -> false in
        match
          if fault `Write then begin
            (* Injected torn write: half the record reaches the file,
               then the device errors — the on-disk shape of a crash
               mid-append combined with EIO. *)
            Record.write_all w.fd (String.sub record 0 (String.length record / 2));
            raise (Unix.Unix_error (Unix.EIO, "write", w.path))
          end;
          Record.write_all w.fd record;
          (* The record is only durable once the kernel has it on disk: a
             written-but-unsynced append can still vanish with the page
             cache on power loss, breaking the resume-equals-uninterrupted
             contract. *)
          let t0 = Obs.Clock.now () in
          if fault `Fsync then
            raise (Unix.Unix_error (Unix.ENOSPC, "fsync", w.path));
          Unix.fsync w.fd;
          Obs.Metrics.observe h_fsync (Obs.Clock.now () -. t0)
        with
        | () ->
            Obs.Metrics.incr m_appends;
            Obs.Metrics.incr ~by:(String.length record) m_bytes
        | exception Unix.Unix_error _ ->
            (* A campaign survives losing its journal device: results
               keep flowing in memory and only durability is lost. *)
            Obs.Metrics.incr m_write_errors;
            w.degraded <- true)

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (* Every record was written and fsynced before its append
           returned: nothing is buffered, so a failing close loses
           nothing. *)
        try Unix.close w.fd with Unix.Unix_error _ -> ()
      end)

let with_writer ?fresh ?chaos path f =
  let w = create ?fresh ?chaos path in
  Fun.protect ~finally:(fun () -> close w) (fun () -> f w)

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)

type fold_stats = {
  fold_records : int;
  fold_valid_bytes : int;
  fold_dropped_bytes : int;
}

let empty_fold_stats =
  { fold_records = 0; fold_valid_bytes = 0; fold_dropped_bytes = 0 }

let fold (type a acc) path ~(init : acc) ~(f : acc -> string -> a -> acc) :
    acc * fold_stats =
  (* Every full pass over a journal counts as a replay. *)
  Obs.Metrics.incr m_replays;
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (init, empty_fold_stats)
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let buf = Record.create () in
          let decode () : [ `Frame of string * a | `Need_more | `Corrupt ] =
            Record.decode buf
          in
          (* [filled] bytes have been read so far, so the undecoded ones
             start at [filled - Record.length buf]: just past the last
             intact record. *)
          let rec loop acc records filled =
            let valid = filled - Record.length buf in
            let stop () =
              let size = (Unix.fstat fd).Unix.st_size in
              ( acc,
                {
                  fold_records = records;
                  fold_valid_bytes = valid;
                  fold_dropped_bytes = size - valid;
                } )
            in
            match decode () with
            | `Frame (key, v) -> loop (f acc key v) (records + 1) filled
            | `Corrupt -> stop ()
            | `Need_more -> (
                match Record.fill fd buf with
                | 0 -> stop ()
                | n -> loop acc records (filled + n)
                | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    loop acc records filled)
          in
          loop init 0 0)

(* Truncation must run with the file closed for writing: the resume path
   calls this before it reopens the journal in append mode, so the next
   append lands exactly at the end of the valid prefix. *)
let repair path =
  let (), stats = fold path ~init:() ~f:(fun () _key _value -> ()) in
  if stats.fold_dropped_bytes > 0 then begin
    Unix.truncate path stats.fold_valid_bytes;
    Obs.Metrics.incr ~by:stats.fold_dropped_bytes m_repaired
  end;
  stats.fold_dropped_bytes
