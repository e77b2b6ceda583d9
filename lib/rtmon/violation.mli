(** Violation intervals: maximal runs of states where a monitored goal is
    false. The evaluation chapter reports violations exactly this way
    ("vehicle jerk was exceeded six times, for 8, 2, 1, 4, 6, and 1 ms"). *)

type interval = {
  start_index : int;  (** first violating state *)
  length : int;  (** number of consecutive violating states *)
  start_time : float;  (** seconds *)
  duration : float;  (** seconds; one state lasts [dt] *)
}

val pp_interval : Format.formatter -> interval -> unit

val make : dt:float -> int -> int -> interval
(** [make ~dt start length] — the interval of [length] states from state
    [start]. *)

val runs : dt:float -> int -> (int -> bool) -> interval list
(** [runs ~dt n bad] — maximal runs of the states [0 .. n-1] where [bad i]
    holds. *)

val of_series : dt:float -> bool array -> interval list
(** Maximal false runs of a per-state satisfaction series. *)

val count : interval list -> int
val total_duration : interval list -> float

val overlap_within : window:float -> interval -> interval -> bool
(** Do two intervals overlap when the first is widened by [window] seconds
    on each side? Decides whether a subgoal violation "corresponds" to a
    goal violation (§5.1.2). *)
