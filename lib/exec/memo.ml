type ('k, 'v) t = {
  table : ('k, 'v * int) Hashtbl.t;  (** value and its weight *)
  inflight : ('k, unit) Hashtbl.t;
      (** keys whose supplier is currently running in some domain *)
  order : 'k Queue.t;  (** insertion order, for FIFO eviction *)
  capacity : int option;
  weight : 'v -> int;
  mutable total : int;  (** summed weight of the live entries *)
  lock : Mutex.t;
  settled : Condition.t;  (** an in-flight computation finished (or failed) *)
  counters : (Obs.Metrics.counter * Obs.Metrics.counter * Obs.Metrics.counter) option;
      (** optional (hits, misses, evictions) exported to the obs registry *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int }

let create ?capacity ?(weight = fun _ -> 1) ?name () =
  let capacity =
    match capacity with
    | Some c when c < 1 -> invalid_arg "Memo.create: capacity must be >= 1"
    | c -> c
  in
  {
    table = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    order = Queue.create ();
    capacity;
    weight;
    total = 0;
    lock = Mutex.create ();
    settled = Condition.create ();
    counters =
      Option.map
        (fun n ->
          ( Obs.Metrics.counter ("cache." ^ n ^ ".hits"),
            Obs.Metrics.counter ("cache." ^ n ^ ".misses"),
            Obs.Metrics.counter ("cache." ^ n ^ ".evictions") ))
        name;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Caller holds the lock. Every key in [order] is in [table] exactly once
   (keys are only added when absent, and eviction removes both together),
   so popping the queue always names a live entry. In-flight keys are not
   in [table] yet and never count against the capacity. The newest entry
   stays even when it alone outweighs the capacity: its caller holds the
   value anyway. *)
let enforce_capacity t =
  match t.capacity with
  | None -> ()
  | Some cap ->
      while t.total > cap && Hashtbl.length t.table > 1 do
        let oldest = Queue.pop t.order in
        t.total <- t.total - snd (Hashtbl.find t.table oldest);
        Hashtbl.remove t.table oldest;
        t.evictions <- t.evictions + 1;
        Option.iter (fun (_, _, e) -> Obs.Metrics.incr e) t.counters
      done

let record_hit (t : (_, _) t) =
  t.hits <- t.hits + 1;
  Option.iter (fun (h, _, _) -> Obs.Metrics.incr h) t.counters

let record_miss (t : (_, _) t) =
  t.misses <- t.misses + 1;
  Option.iter (fun (_, m, _) -> Obs.Metrics.incr m) t.counters

(* The supplier's value and its weight, both computed outside the lock:
   a raising [weight] fails the lookup like a raising supplier. *)
let weighed t supply =
  let v = supply () in
  (v, t.weight v)

(* Single-flight: the first domain to miss a key runs the supplier; a
   domain finding the same key in flight waits for that computation and
   then serves the freshly inserted value as a hit — exactly the counters
   a sequential interleaving of the same lookups would produce, and no
   duplicated supplier work. If the winner's supplier raises, the waiters
   are woken and race to become the next winner (each such retry is that
   caller's one recorded miss). *)
let find_or_add t key supply =
  Mutex.lock t.lock;
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (v, _) ->
        record_hit t;
        Mutex.unlock t.lock;
        Some v
    | None ->
        if Hashtbl.mem t.inflight key then begin
          Condition.wait t.settled t.lock;
          await ()
        end
        else None
  in
  match await () with
  | Some v -> v
  | None ->
      record_miss t;
      Hashtbl.add t.inflight key ();
      Mutex.unlock t.lock;
      (* compute outside the lock so distinct cold keys fill in parallel *)
      (match weighed t supply with
      | v, w ->
          Mutex.lock t.lock;
          Hashtbl.remove t.inflight key;
          (* [clear] may have run while computing; insertion is still
             correct — the entry is simply the first of the new epoch. *)
          Hashtbl.add t.table key (v, w);
          t.total <- t.total + w;
          Queue.push key t.order;
          enforce_capacity t;
          Condition.broadcast t.settled;
          Mutex.unlock t.lock;
          v
      | exception exn ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.lock;
          Hashtbl.remove t.inflight key;
          Condition.broadcast t.settled;
          Mutex.unlock t.lock;
          Printexc.raise_with_backtrace exn bt)

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.table;
  Queue.clear t.order;
  t.total <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  Mutex.unlock t.lock

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
  Mutex.unlock t.lock;
  s

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.Closures ]))
