(** Hierarchical monitoring reports (§3.4, §5.1.2).

    For each system goal monitored alongside its ICPA-derived subgoals:
    - a {e hit} is a goal violation with at least one corresponding subgoal
      violation (the subgoals predicted the hazard);
    - a {e false negative} is a goal violation with no corresponding
      subgoal violation — evidence of residual emergence (the demon [X] of
      Eq. 3.14);
    - a {e false positive} is a subgoal violation with no corresponding
      goal violation — restrictive or redundant goal coverage (the angel
      [Y] of Eq. 3.23), or a masked subsystem defect. *)

type outcome = Hit | False_negative | False_positive | Monitor_inhibited

val outcome_to_string : outcome -> string

type entry = {
  goal_name : string;  (** the goal or subgoal violated *)
  location : string;  (** monitoring location, e.g. "Vehicle", "Arbiter", "CA" *)
  interval : Violation.interval;
  outcome : outcome;
}

type t = {
  window : float;
  entries : entry list;
  hits : int;
  false_negatives : int;
  false_positives : int;
  inhibited : int;  (** total inhibition intervals across all monitors *)
  inhibitions : (string * int) list;
      (** per-monitor inhibition-interval counts (monitor name → count);
          monitors never inhibited are omitted *)
}

val classify :
  window:float ->
  ?inhibitions:(string * string * Violation.interval list) list ->
  goal:string * string * Violation.interval list ->
  subgoals:(string * string * Violation.interval list) list ->
  unit ->
  t
(** [classify ~window ?inhibitions ~goal:(name, location, intervals)
    ~subgoals ()] — classify every violation by temporal correspondence
    within [window]. [inhibitions] lists per-monitor intervals during which
    the monitor could not judge (missing or NaN inputs under runtime
    faults); each becomes a [Monitor_inhibited] entry, counted separately
    from hits/FNs/FPs. *)

type totals = {
  total_hits : int;
  total_false_negatives : int;
  total_false_positives : int;
  total_inhibited : int;
}

val totals : t list -> totals
(** Sum the classification counters over a set of reports (e.g. all the
    reports of one campaign cell, or of a whole resumed run). *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
