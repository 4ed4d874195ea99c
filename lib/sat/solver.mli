(** A modern incremental CDCL SAT solver: flat clause-arena storage,
    watched literals with blocker caching, first-UIP learning with
    recursive (self-subsuming) learnt-clause minimization, VSIDS
    activities, phase saving, Luby restarts, and LBD-driven clause
    database reduction with optional bounded vivification of retained
    learnts.

    Variables are positive integers starting at 1; a literal is a non-zero
    integer whose sign selects the polarity (DIMACS convention). The solver
    backs the combinational equivalence checks that the paper performs
    after every optimization run, and the redundancy-elimination pass used
    for area recovery.

    The solver is single-threaded and free of randomness and clocks:
    every decision — including when the learnt database is reduced,
    which is triggered purely by cumulative conflict counts — depends
    only on the sequence of [add_clause]/[solve] calls, so all
    statistics are deterministic and independent of [-j]. *)

type t

type result = Sat | Unsat

(** [create ()] builds an empty solver. [vivify] (default [true])
    enables bounded vivification of retained learnt clauses at database
    reduction points. [reduce_base] (default 300) is the cumulative
    conflict count of the first database reduction; the interval to
    each subsequent reduction grows by the same amount. Both knobs
    exist for tests; production call sites use the defaults. *)
val create : ?vivify:bool -> ?reduce_base:int -> unit -> t

(** Ensure variables up to [v] exist; returns [v] for convenience. *)
val ensure_var : t -> int -> int

(** Fresh variable. *)
val new_var : t -> int

(** Add a clause of literals. Adding the empty clause makes the instance
    trivially unsatisfiable. *)
val add_clause : t -> int list -> unit

(** [solve ?assumptions s] decides satisfiability under the optional
    assumption literals. The solver state stays usable afterwards
    (incremental). *)
val solve : ?assumptions:int list -> t -> result

(** Like {!solve}, but gives up and returns [None] after [conflict_limit]
    conflicts (a non-positive limit means no limit). Used by SAT sweeping
    to bound the effort per candidate equivalence; the solver stays
    usable either way.

    [guard] (default {!Guard.none}) makes the query governable: the
    budget's [sat_conflict_ceiling] caps [conflict_limit] per call, the
    cumulative [sat_conflict_budget] bounds the aggregate conflicts a
    guard's whole lifetime may spend (each call reports its conflicts
    back via [Guard.sat_spend], and an exhausted budget makes further
    calls return [None] immediately), and an armed injection rule can
    force [None] without touching the solver — callers must already
    treat [None] as "no verdict". *)
val solve_limited :
  ?guard:Guard.t ->
  ?assumptions:int list ->
  conflict_limit:int ->
  t ->
  result option

(** After [Sat]: model value of a variable. *)
val value : t -> int -> bool

val num_vars : t -> int

(** Number of conflicts in the last [solve] call, for diagnostics. *)
val last_conflicts : t -> int

(** Cumulative search statistics since [create]. Deterministic for a
    deterministic sequence of [add_clause]/[solve] calls — the solver has
    no randomization — so callers may record deltas of these into
    deterministic [Obs] counters.

    [learnts_live] is the current learnt-clause count (not cumulative);
    [arena_words] the words currently used by the clause arena and
    [arena_peak_words] its lifetime peak; [minimized_lits] counts
    literals removed from learnt clauses by self-subsuming minimization,
    [vivified_lits] those removed by vivification at reduction points. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reductions : int;
  learnts_live : int;
  learnts_deleted : int;
  minimized_lits : int;
  vivified_lits : int;
  arena_words : int;
  arena_peak_words : int;
}

val stats : t -> stats
