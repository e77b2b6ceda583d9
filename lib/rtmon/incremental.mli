(** Pure incremental monitors for the past-time fragment.

    There is one compiler, {!plan}. It hash-conses the invariant bodies of
    any number of formulas into one topologically ordered op program: one
    op per distinct subformula, and one memory slot (an [int]: booleans as
    0/1, counters for the bounded-duration operators) per distinct temporal
    subformula. Every runner executes that program:
    - {!run}, the production path, evaluates a whole plan over a trace a
      column at a time: each op once over all states, per group of
      formulas with the same degraded inputs;
    - {!create} and {!step} run a one-formula plan over [State.t] values;
      the monitor's dynamic state is a small comparable vector, so the
      same program is the product component of the model checker
      ({!Mc.Checker});
    - {!run_trace} and {!run_trace_status} run a one-formula plan over a
      trace a state at a time; [run_trace_status] is the per-monitor
      reference for {!run}.

    Equivalence with the reference semantics {!Tl.Eval.eval} is established
    by the property tests in [test/test_rtmon.ml]. *)

open Tl

exception Not_monitorable of string
(** Raised when the formula contains future operators beneath the top-level
    □ — goals with ♦ are not realizable nor monitorable (§4.5.3). *)

(** {1 Plans} *)

type plan
(** Compiled formulas: an immutable op program, safe to share between
    domains. Every run allocates its own memory. *)

val plan : dt:float -> Formula.t list -> plan
(** [plan ~dt fs] compiles the past-time formulas [fs] into one program.
    A top-level [Always] is stripped: invariant monitoring checks the body
    at every state. Equal subformulas share one op, and equal temporal
    subformulas one memory slot; [dt] converts the bounded-duration
    operators' seconds into states. Atoms are shared when their bytes are
    equal, so the constants [0.] and [-0.] stay apart.
    @raise Not_monitorable if a future operator remains. *)

val op_count : plan -> int
(** Distinct subformulas: the length of the op program. *)

val slot_count : plan -> int
(** Distinct temporal subformulas: the length of the memory vector. *)

(** {1 Stepping over states} *)

type t
(** A monitor: a one-formula plan plus current memory. Immutable — {!step}
    returns the successor. *)

val create : dt:float -> Formula.t -> t
(** [create ~dt f] is [f]'s one-formula plan with its initial memory.
    @raise Not_monitorable if a future operator remains. *)

val mem : t -> int array
(** The dynamic state alone, for use as a model-checking product component.
    Treat as opaque and do not mutate. *)

val with_mem : t -> int array -> t

val step : t -> State.t -> bool * t
(** [step t state] evaluates one state transition, returning the formula's
    truth value in [state] and the successor monitor. The input monitor is
    not mutated. *)

val run_trace : Formula.t -> Trace.t -> bool array
(** Truth value of the formula's invariant body at every state, computed
    incrementally; agrees with [Tl.Eval.series] on the body. *)

(** {1 Degradation-aware monitoring}

    Under runtime faults (sensor dropout, NaN measurements) a monitor's
    inputs can be missing or garbage; the three-valued runners report
    inhibition for such states instead of silently classifying. A state is
    inhibited for a formula when any variable of the formula is missing or
    NaN there. The formula's memory is frozen across inhibited states: it
    resumes from its pre-fault state rather than absorbing garbage. *)

type status = Pass | Fail | Inhibited

val degraded : Value.t -> bool
(** A value a monitor must refuse to judge on (NaN). *)

val inhibited : State.t -> string list -> bool
(** Is any of the given state variables missing or degraded? *)

val run_trace_status : Formula.t -> Trace.t -> status array
(** Three-valued verdict per state for one formula: the per-monitor
    reference that {!run} is tested against. *)

val fails : dt:float -> status array -> Violation.interval list
(** Maximal [Fail] runs — the violation intervals. *)

val inhibitions : dt:float -> status array -> Violation.interval list
(** Maximal [Inhibited] runs. *)

(** {1 Fused monitoring} *)

type verdict = {
  violations : Violation.interval list;  (** maximal [Fail] runs *)
  inhibited : Violation.interval list;  (** maximal [Inhibited] runs *)
}

val run : plan -> Trace.t -> verdict array
(** [run p trace] — one verdict per formula of [p], in plan order, equal to
    {!fails} and {!inhibitions} of {!run_trace_status} on each formula.

    Per trace, [run] binds each distinct atom to the trace's columns once
    and computes one absent-or-NaN mask per variable. Formulas are grouped
    by the set of their variables whose mask is non-empty, so a fault-free
    trace is one group. [run] evaluates columns at a time: each op a
    group's formulas read is computed once over all states, as a constant
    or as a bitset of 64 states per word.
    - An atom whose variables each hold one value all run is evaluated
      once; comparisons of a float column with a constant, symbol tests
      and boolean variables are read in tight loops; other atoms run
      their compiled per-state reader. Atoms mean exactly what they mean
      on [State.t]: numbers compare by [Float.compare] and [Float.equal].
    - A bitset whose bits all agree folds to a constant, and the
      connectives fold constants and otherwise combine whole words.
    - Temporal ops step through the states the group judges, with the
      memory update of the state-at-a-time reference, frozen on the
      states where any of the group's degraded variables is absent or
      NaN. Ops with no temporal op beneath them are shared by all groups.
    - Violation and inhibition intervals come from scanning bitsets: no
      status array is built.

    Bitsets live in per-domain buffers reused across runs, so a warm
    domain allocates none. A formula with an atom that cannot be bound to
    the trace's columns (a mixed-type column, an ordered comparison of
    non-numeric terms, a missing variable) runs alone through
    {!run_trace_status}. A trace whose [dt] differs from the plan's is run
    under a plan recompiled for its [dt]. *)
