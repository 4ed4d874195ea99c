(** Combinational equivalence checking.

    The paper verifies every optimized circuit against the original
    ("an equivalence check is performed after optimization", Sec. 5); this
    module provides that check: random simulation for fast refutation
    followed by SAT on a miter. *)

type verdict =
  | Equivalent
  | Counterexample of bool array  (** input assignment where outputs differ *)

(** [check ?guard a b] compares two circuits with the same number of
    inputs and outputs (matched positionally). [guard] (default
    {!Guard.none}) governs only the bounded merge-proof queries of the
    fraig sweep — a budget or injected fault can make the sweep merge
    less, never change the verdict, because the final per-diff queries
    are unbounded and unguarded. *)
val check : ?guard:Guard.t -> Graph.t -> Graph.t -> verdict

val equivalent : ?guard:Guard.t -> Graph.t -> Graph.t -> bool

(** Work counters for one check: simulation rounds run (seed,
    refutation-refinement, and miter-level), SAT queries issued, fraig
    merges proven, and bounded queries that exhausted their conflict
    budget. Deterministic for a given input pair at any [-j]. *)
type stats = {
  sim_rounds : int;
  sat_calls : int;
  merges : int;
  budget_exhausted : int;
}

(** [check] plus the sweep's work counters (also recorded under the
    [cec.*] and [sat.*] [Obs] metrics when observation is enabled). *)
val check_with_stats : ?guard:Guard.t -> Graph.t -> Graph.t -> verdict * stats

(** Fold a finished solver's work into the [sat.*] [Obs] metrics:
    counters add across solvers, gauges keep the peak. Every pass that
    owns a fresh solver ([check], {!Sweep.sat_sweep}) records through
    this. *)
val record_solver_stats : Sat.Solver.t -> unit
