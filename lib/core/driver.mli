(** Top-level lookahead optimization flow (Sec. 3.1, applied iteratively).

    One round performs one level of timing-driven decomposition on every
    critical output: cluster the AIG into a technology-independent
    network (`renode`), compute global functions and the SPCF, run
    primary and secondary simplification, reconstruct
    [y = Σ·y0 + ¬Σ·y1] with implication-rule selection, and rebuild the
    AIG. Rounds repeat while the depth improves (producing the multi-level
    decomposition Σ1…Σl of Eqn. 2); area recovery
    ({!Aig.Sweep.sat_sweep}) runs at the end, as in the paper. *)

type options = {
  cluster_k : int;  (** max fanins of a network node (renode k) *)
  max_rounds : int;  (** decomposition levels attempted *)
  max_decomp_levels : int;
      (** recursion depth of the per-output peeling (Σ1…Σl of Eqn. 2) *)
  spcf_max_nodes : int;  (** late nodes unioned into the SPCF *)
  time_limit_s : float;
      (** wall-clock budget: once exceeded, remaining outputs and rounds
          fall back to conventional rewriting (anytime behaviour) *)
  use_exact_spcf : bool;
      (** use the exact floating-mode SPCF when the circuit is small
          enough (otherwise the node-based approximation) *)
  guard_budget : Guard.Budget.t;
      (** hard resource ceilings for every governed substrate. One
          {!Guard} context is created per decomposition job (shared
          across the rungs of its degradation ladder) and one for the
          run's finishing passes; on exhaustion the driver walks
          exact SPCF → approximate SPCF → smaller window → skip the
          output, each descent recorded as a [Det] [guard.rung.*]
          counter, so degraded runs stay bit-identical at any [-j].
          The default ceilings sit far above the paper's workloads, so
          unfaulted default runs match the ungoverned flow exactly. *)
  deadline : Guard.Deadline.t option;
      (** run under this externally owned deadline instead of deriving
          one from [time_limit_s] — a server passes a
          {!Guard.Deadline.cancellable} value here so a client
          disconnect can expire the job; [None] (the default)
          preserves the one-shot behaviour. *)
}

val default : options

(** The run's deadline: [options.deadline] when set, else one that
    expires [time_limit_s] from now ({!Guard.Deadline.never} when that
    is infinite). Every optimizer that takes [options] derives its
    deadline here. *)
val deadline_of : options -> Guard.Deadline.t

(** Statistics of one optimization run. *)
type stats = {
  rounds_run : int;
  outputs_decomposed : int;
  initial_depth : int;
  final_depth : int;
}

(** [optimize ?options g] returns the optimized circuit. The result is
    guaranteed equivalent: every accepted reconstruction is validated
    against the original global functions, and a final SAT equivalence
    check is asserted. *)
val optimize : ?options:options -> Aig.t -> Aig.t

(** Same, also returning run statistics. *)
val optimize_with_stats : ?options:options -> Aig.t -> Aig.t * stats

(** Fold a manager's {!Bdd.stats} into the [bdd.*] observation counters
    (managers, nodes allocated, peak live nodes, growths, and per-cache
    lookups/hits/misses). The driver calls this once per decomposition
    job; other sequential passes that own a private manager ({!Mfs})
    call it too. No-op while observation is disabled. *)
val record_bdd_stats : Bdd.man -> unit

(** [rung_counter name] is the [Det] counter ["guard.rung." ^ name] —
    the degradation-ladder accounting idiom. Every governed optimizer
    records its rung descents through this so the names stay in one
    dotted family (the driver's [approx_spcf]/[shrink_window]/
    [skip_output] rungs, the e-graph engine's [egraph_best_so_far]).
    Metrics are registered once by name, so repeated calls return the
    same counter. *)
val rung_counter : string -> Obs.counter
