(** The streaming journal miner: one pass, three system-level tables.

    An analyzer owns one {!Cascade}, one {!Trajectory} and one
    {!Residual} accumulator and feeds every incoming campaign cell to
    all three. Cells arrive either from crash-safe campaign journals
    ({!ingest}, built on the constant-memory {!Scenarios.Journal.fold})
    or live from a running campaign
    ([Scenarios.Campaign.run ?on_cell:(Analyze.observe t)]); both paths
    produce identical tables, and any interleaving or permutation of the
    same cells produces byte-identical CSVs — the analyzers are
    order-independent by construction, so journals written under any
    [--shards]/[-j]/chaos configuration mine to the same bytes.

    Telemetry rides the standard obs/1 registry: [analytics.records],
    [analytics.records_skipped] and [analytics.journals] counters are
    bumped as the stream flows, and {!publish} exports the result-level
    gauges so [bin/metrics_check] can gate trends in CI. *)

type t
(** A live analyzer. All operations serialize on an internal mutex, so
    an analyzer may be fed concurrently — e.g. from pool worker domains
    via [?on_cell]. *)

val create : unit -> t

val observe : t -> Scenarios.Campaign.cell -> unit
(** Feed one live cell (flattened through {!Record.of_cell}; counted in
    [analytics.records]). Thread-safe. *)

val observe_record : t -> Record.t -> unit
(** Feed one already-flattened record. Thread-safe. *)

val ingest : t -> string -> unit
(** Stream every intact record of the campaign-cell journal at the
    given path through the analyzers, in constant memory. Records that
    fail {!Record.validate} and torn or corrupt tails are skipped and
    counted in [analytics.records_skipped] — a journal interrupted by
    SIGKILL or a device failure mines fine. The journal must hold
    [Scenarios.Campaign.cell] values (the same contract as
    {!Scenarios.Journal.fold}: [Marshal] framing is not
    self-describing across types). *)

val records : t -> int
(** Cells accepted so far (live and journaled). *)

val skipped : t -> int
(** Records rejected (validation failure or torn tail). *)

val journals : t -> int
(** Journal files ingested. *)

val cascade : t -> Cascade.row list
(** Snapshot of the cascade table (see {!Cascade.rows}). *)

val trajectory : t -> Trajectory.row list
(** Snapshot of the trajectory surface (see {!Trajectory.rows}). *)

val residual : t -> Residual.row list
(** Snapshot of the residual table (see {!Residual.rows}). *)

val residual_fraction : t -> float
(** Aggregate residual-emergence fraction (see {!Residual.fraction}). *)

val goal_cells : t -> int
(** Cells whose fault flipped at least one goal monitor (see
    {!Residual.goal_cells}). *)

val missed_cells : t -> int
(** Cells the campaign verdict classified as [Missed] (see
    {!Residual.missed_cells}). *)

val cascade_csv : t -> string
val trajectory_csv : t -> string

val residual_csv : t -> string
(** Deterministic CSV renderings of the three tables. *)

val footprint : t -> int
(** Total live keyed entries and retained sample elements across the
    three analyzers — bounded by grid diversity and reservoir
    capacities, independent of how many records streamed through.
    [test/test_analytics.ml] asserts it stays flat when the input
    journal grows tenfold. *)

val publish : t -> unit
(** Export result-level gauges to the obs registry:
    [analytics.cascades], [analytics.cascade_groups],
    [analytics.trajectory_points], [analytics.goal_flips],
    [analytics.residual_fraction] and [analytics.footprint]. Call before
    writing a [--metrics] snapshot. *)
