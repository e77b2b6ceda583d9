(** Mechanized verification of the ICPA decomposition (§4.4.3): under the
    critical assumptions (indirect control relationships 01–22), the
    Table 4.4 subgoals entail Maintain[DoorClosedOrElevatorStopped] on every
    trace of a fully nondeterministic abstraction of the elevator.

    The Kripke structure places *no* constraints at all: every combination
    of door/drive state and commands can follow any other. All physics and
    all controller behaviour live in the monitored premise, so a [Valid]
    outcome is a genuine proof of the composition claim (bounded only by the
    monitor memories, which are finite). *)

let dmc_values = Mc.Kripke.syms [ "OPEN"; "CLOSE" ]
let drc_values = Mc.Kripke.syms [ "STOP"; "GO" ]

let domains =
  [
    ("dc", Mc.Kripke.bools);
    ("db", Mc.Kripke.bools);
    ("es_stopped", Mc.Kripke.bools);
    ("drs_stopped", Mc.Kripke.bools);
    ("dmc", dmc_values);
    ("drc", drc_values);
  ]

let all_states = Mc.Kripke.assignments domains

let kripke : Mc.Kripke.t =
  Mc.Kripke.make ~name:"elevator (unconstrained abstraction)" ~init:all_states
    ~next:(fun _ -> all_states)

let subgoal_formulas =
  [
    Goals.close_door_when_moving_or_moved.Kaos.Goal.formal;
    Goals.stop_elevator_when_door_open_or_opened.Kaos.Goal.formal;
  ]

(** A composition obligation: under the critical [assumptions], the
    derived [subgoals] entail the parent [goal]. *)
type composition = {
  assumptions : Tl.Formula.t list;
  subgoals : Tl.Formula.t list;
  goal : Tl.Formula.t;
}

(** The headline obligation: assumptions + subgoals ⊨ parent goal. *)
let decomposition =
  {
    assumptions = Relationships.formulas;
    subgoals = subgoal_formulas;
    goal = Goals.door_closed_or_stopped.Kaos.Goal.formal;
  }

(** The decomposition without the domain assumption r22 (a closed door
    cannot be blocked). It stays valid: for a blocked closed door,
    relationships 02/04 (a closed door commanded CLOSE, or freshly
    commanded OPEN, stays closed) and relationship 11 (a blocked door is
    not closed) are jointly unsatisfiable, so no physical trace reaches
    that region — r22 makes the implicit domain constraint explicit rather
    than adding proof power. *)
let without_closed_door_assumption =
  {
    decomposition with
    assumptions =
      List.filter
        (fun g -> g <> Relationships.r22.Icpa.Table.formal)
        Relationships.formulas;
  }

(** The naive single-agent decomposition (Figs. 4.12–4.13 without the
    command-observation terms). It does {e not} compose the parent: both
    controllers can actuate simultaneously from the safe initial state
    (§4.5.1). *)
let naive =
  {
    decomposition with
    subgoals =
      [
        Goals.close_door_when_moving.Kaos.Goal.formal;
        Goals.stop_elevator_when_door_open.Kaos.Goal.formal;
      ];
  }

(** Every obligation this module checks. *)
let compositions = [ decomposition; without_closed_door_assumption; naive ]

let check_composition ?(max_states = 2_000_000) c =
  Mc.Checker.check_composition ~max_states kripke ~assumptions:c.assumptions
    ~subgoals:c.subgoals ~goal:c.goal

(** The headline check: assumptions + subgoals ⊨ parent goal. *)
let check ?max_states () = check_composition ?max_states decomposition

(** The claim is insensitive to r22; the mechanized check documents it. *)
let check_without_closed_door_assumption ?max_states () =
  check_composition ?max_states without_closed_door_assumption

(** The naive decomposition has a counterexample. *)
let check_naive ?max_states () = check_composition ?max_states naive
