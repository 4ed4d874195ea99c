(** Combinational equivalence checking, and the fraig engine it runs.

    The paper verifies every optimized circuit against the original
    ("an equivalence check is performed after optimization", Sec. 5); this
    module provides that check: random simulation for fast refutation,
    then a fraig sweep of the miter. The same sweep is the SAT
    redundancy removal ({!sweep}, {!Sweep.sat_sweep}). *)

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
    budget. Deterministic for a given input at any [-j]. *)
type stats = {
  sim_rounds : int;
  sat_calls : int;
  merges : int;
  budget_exhausted : int;
}

(** [check] plus the sweep's work counters (also recorded under the
    [cec.*] and [sat.*] [Obs] metrics when observation is enabled). *)
val check_with_stats : ?guard:Guard.t -> Graph.t -> Graph.t -> verdict * stats

(** [sweep ~guard g] rebuilds [g]'s live part, merging nodes proven
    equivalent (up to complement) by the engine that sweeps every miter.
    A node merges into its shallowest earlier proven-equal node when
    that one is no deeper; otherwise later readers of that node read
    the new one. So no node gets deeper, and the result has no more
    levels and no more ANDs than [g]. [guard] governs the bounded
    per-candidate proof queries, as in [check]. Records its queries
    and merges as [sweep.sat_calls] and [sweep.merges], and the
    [sat.*] metrics. *)
val sweep : guard:Guard.t -> Graph.t -> Graph.t
