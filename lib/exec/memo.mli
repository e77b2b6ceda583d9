(** A process-wide, domain-safe memo table with cold/warm counters.

    Lookups and insertions are serialized by a mutex, but the supplier
    runs {e outside} the lock so concurrent misses on distinct keys
    compute in parallel. Lookups are {e single-flight} per key: the
    first domain to miss runs the supplier, any domain looking the same
    key up meanwhile blocks until that computation settles and then
    receives the same (physically equal) value, counted as a hit. The
    counters are therefore exactly what a sequential interleaving of the
    same lookups would produce — parallel and sequential runs of one
    workload report identical hit/miss totals — and a supplier is never
    invoked twice for a key that stays resident.

    The supplier of a key must not look up the {e same} key in the same
    table (single-flight would make it wait on itself); distinct keys,
    including through nested tables, are fine. *)

type ('k, 'v) t
(** A memo table from keys ['k] to values ['v]. Safe to share across
    domains; see the module documentation for the locking and
    single-flight contract. *)

type stats = {
  hits : int;  (** warm lookups: value served from the table *)
  misses : int;  (** cold lookups: the supplier was invoked *)
  evictions : int;  (** entries dropped to stay under [capacity] *)
}

val create : ?capacity:int -> ?weight:('v -> int) -> ?name:string -> unit -> ('k, 'v) t
(** [capacity] (default: unbounded) is a hard bound on the summed
    [weight] of the live entries (default weight 1, so by default it
    bounds their number): when an insertion exceeds it the oldest entries
    (FIFO over insertion order) are evicted and counted in
    [stats.evictions], so long-running campaigns cannot grow memory
    without limit. The newest entry is never evicted, even when its
    weight alone exceeds the capacity. Must be [>= 1]; weights must be
    [>= 0], and [weight] runs outside the lock like the supplier (an
    exception from it is a supplier exception). [name] additionally
    mirrors the three counters into the process-wide metrics registry as
    [cache.<name>.hits] / [.misses] / [.evictions], so snapshots
    ([--metrics]) report this table. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Serve [key] from the table, or run the supplier (single-flight, see
    above) and insert its result. A supplier exception propagates to the
    caller that ran it (with its backtrace); waiters then retry, the
    next one becoming the new supplier. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry and reset the counters. *)

val length : ('k, 'v) t -> int
(** Number of live entries (with unit weights, always [<= capacity]
    when one was given). *)

val stats : ('k, 'v) t -> stats
(** Cumulative hit/miss/eviction counters since creation (or the last
    {!clear}). *)

val digest : 'a -> string
(** Structural digest of an arbitrary value, usable as a memo key.
    Implemented with [Marshal] in [Closures] mode, so keys may contain
    functions (e.g. scripted speed profiles); closure digests are only
    stable within one process, which is exactly the lifetime of the
    table. *)
