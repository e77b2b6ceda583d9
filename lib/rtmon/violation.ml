(** Violation intervals: maximal runs of states where a monitored goal is
    false. The evaluation chapter reports violations exactly this way
    ("vehicle jerk was exceeded six times, for 8, 2, 1, 4, 6, and 1 ms"). *)

type interval = {
  start_index : int;  (** first violating state *)
  length : int;  (** number of consecutive violating states *)
  start_time : float;  (** seconds *)
  duration : float;  (** seconds; one state lasts [dt] *)
}

let pp_interval ppf iv =
  Fmt.pf ppf "[t=%.3fs for %gms]" iv.start_time (iv.duration *. 1000.)

(** [make ~dt start length] — the interval of [length] states from state
    [start]. *)
let make ~dt start_index length =
  {
    start_index;
    length;
    start_time = float_of_int start_index *. dt;
    duration = float_of_int length *. dt;
  }

(** [runs ~dt n bad] — maximal runs of the states [0 .. n-1] where
    [bad i] holds. *)
let runs ~dt n bad : interval list =
  let rec go i acc =
    if i >= n then List.rev acc
    else if not (bad i) then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && bad !j do
        incr j
      done;
      go !j (make ~dt i (!j - i) :: acc)
  in
  go 0 []

(** [of_series ~dt ok] — maximal false runs of the per-state satisfaction
    series [ok]. *)
let of_series ~dt (ok : bool array) = runs ~dt (Array.length ok) (fun i -> not ok.(i))

let count = List.length
let total_duration ivs = List.fold_left (fun acc iv -> acc +. iv.duration) 0. ivs

(** [overlap_within ~window a b] — do two intervals overlap when each is
    widened by [window] seconds? Used to decide whether a subgoal violation
    "corresponds" to a goal violation (§5.1.2). *)
let overlap_within ~window a b =
  let a0 = a.start_time -. window and a1 = a.start_time +. a.duration +. window in
  let b0 = b.start_time and b1 = b.start_time +. b.duration in
  not (b1 < a0 || b0 > a1)
