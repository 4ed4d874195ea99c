(** Resource governance for every bounded operation in the stack.

    The synthesis flow is full of substrates that can run out of road:
    window BDDs and exact SPCF blow up on wide cones, SAT budgets
    exhaust mid-sweep, and the anytime deadline can expire between any
    two steps. [Guard] turns each of those events into a {e typed,
    recoverable outcome} — a single {!Blowup} exception carrying the
    exhausted resource and the site that hit it — instead of an ad-hoc
    bail scattered through the callers. The driver catches {!Blowup}
    and walks a deterministic degradation ladder (exact SPCF →
    approximate SPCF → smaller window → skip the output), each rung
    logged as a [Det]-classified {!Obs} counter.

    {b Contexts.} A {!t} is a per-governed-unit context: one per
    decomposition job, one per MFS run, one per driver run for the
    final sweep/CEC. Tick counts live in the context, so the sequence
    of guarded calls inside a unit is a pure function of that unit's
    input — never of scheduling — which is what keeps fault injection
    (and hence degraded runs) bit-identical at any [-j].

    {b Zero cost when off.} Like [Obs], the fast path of every hook is
    a couple of loads: {!none} contexts never tick, never expire and
    never fire, and armed-injection checks are behind a single
    [Atomic.get]. *)

(** A single absolute deadline, shareable across every worker of a run
    so a time budget means the same thing at [-j 1] and [-j 8]. It
    reads {!Obs.Clock}. *)
module Deadline : sig
  type t

  (** [after s] expires [s] seconds from now; [s <= 0] or infinite
      never expires. *)
  val after : float -> t

  val never : t

  (** A deadline with no time bound that can still be {!cancel}led —
      what a server attaches to a job so a client disconnect can expire
      it. Each call returns a fresh, independently cancellable value. *)
  val cancellable : unit -> t

  (** [bound t s] expires in [s] seconds (or at [t]'s own instant,
      whichever is sooner) and shares [t]'s cancellation flag:
      cancelling either expires both. [s <= 0] or infinite returns [t]
      unchanged. *)
  val bound : t -> float -> t

  (** Expire [t] now, from any domain. Every {!expired} poll — i.e.
      every [Guard.check_deadline] cancellation point in the stack —
      observes it and raises {!Blowup}[ Time]. No-op on {!never}. *)
  val cancel : t -> unit

  val cancelled : t -> bool
  val expired : t -> bool

  (** Seconds left; [infinity] for {!never}, [0.] once cancelled. *)
  val remaining_s : t -> float
end

(** The resource classes a guarded operation can exhaust. *)
type resource = Bdd_nodes | Sat_conflicts | Time

val resource_name : resource -> string

(** Raised by a guarded operation when its budget is exhausted (or a
    matching injected fault fires — [injected] distinguishes the two).
    Always recoverable: the raising substrate leaves no dangling shared
    state, so the catcher may retry with a smaller configuration or
    skip the unit of work entirely. *)
exception Blowup of { resource : resource; site : string; injected : bool }

module Budget : sig
  type t = {
    bdd_node_ceiling : int;
        (** Hard ceiling on total allocated nodes of a guarded BDD
            manager; crossing it raises {!Blowup}[ Bdd_nodes]. [<= 0]
            means unlimited. Distinct from the driver's soft live-node
            limit (12 M), which stops decomposition gracefully long
            before this fires. *)
    sat_conflict_ceiling : int;
        (** Caps the [conflict_limit] of every guarded
            [Sat.Solver.solve_limited] call. [<= 0] means the caller's
            own limit stands. *)
    sat_conflict_budget : int;
        (** Cumulative conflict budget across {e all} guarded SAT calls
            of a context's lifetime (one sweep, one job): each call
            reports its conflicts back via {!sat_spend}, {!sat_limit}
            tightens per-call limits to the remainder, and once spent
            ({!sat_exhausted}) further calls return no verdict. [<= 0]
            means unlimited. Unlike [sat_conflict_ceiling], this bounds
            a sweep of thousands of cheap queries in aggregate. *)
  }

  (** 48M BDD nodes, no SAT cap — far above anything the paper's
      workloads allocate, so default-budget runs are byte-identical to
      unguarded ones. *)
  val default : t

  val unlimited : t
end

type t

(** The unguarded context: never ticks, never fires, no deadline. *)
val none : t

val create : ?deadline:Deadline.t -> Budget.t -> t
val budget : t -> Budget.t
val deadline : t -> Deadline.t

(** [divide t n] splits [t] into [n] sub-contexts for work run as
    parallel parts (the portfolio's arms): the BDD node ceilings of
    the parts sum to [t]'s (remainder on the first parts; floor 1 per
    part, so for [n] greater than the ceiling the sum exceeds it
    slightly rather than any part becoming unlimited), an unlimited
    ceiling stays unlimited, the deadline is shared, and the SAT
    ceiling is replicated. Each part has fresh injection hit counters,
    so armed faults land per part — a function of that part's work
    only, never of scheduling. [divide none n] is [n] copies of
    {!none}. *)
val divide : t -> int -> t list

(** [divide_overcommits t n] is [true] exactly when {!divide}[ t n]
    would take the floor-1 path: [t] is guarded with a positive BDD
    node ceiling smaller than [n], so the parts' ceilings sum beyond
    the whole. Callers that can serialize their parts (the portfolio
    arm splitter) use this to run them sequentially under the undivided
    context instead of over-committing. Raises [Invalid_argument] for
    [n <= 0], like {!divide}. *)
val divide_overcommits : t -> int -> bool

(** Deterministic fault injection. Rules are global (armed once, before
    workers start) but fire against per-context tick counts, so where a
    fault lands is independent of scheduling. Disabled, the hooks cost
    one atomic load — the [Obs] pattern. *)
module Inject : sig
  type fault = Bdd_blowup | Sat_exhaust | Deadline_expire

  type rule = {
    fault : fault;
    at : int;
        (** Fire at the [at]-th matching guarded call of each context.
            A rule with a [site] counts only calls at that site, so
            ["deadline@2:driver.decompose"] means "the second
            decompose-loop check of each job". *)
    repeat : bool;  (** Re-fire at every further multiple of [at]. *)
    site : string option;  (** Restrict to one site; [None] = any. *)
  }

  val arm : rule list -> unit
  val disarm : unit -> unit
  val armed : unit -> bool

  (** Parse a spec like ["bdd@500,sat@3:r,deadline@7:driver.decompose"]:
      comma-separated rules, each [fault@N] with optional [:r] (repeat)
      and [:site] suffixes; fault is [bdd], [sat] or [deadline]. *)
  val of_string : string -> (rule list, string) result

  val to_string : rule list -> string

  (** Deterministic pseudo-random rule list for fuzzing: same seed,
      same rules. *)
  val seeded : seed:int -> rule list
end

(** [tick_bdd t ~site] marks one guarded BDD entry point call. Raises
    an [injected] {!Blowup}[ Bdd_nodes] when an armed rule fires. *)
val tick_bdd : t -> site:string -> unit

(** Ceiling for a manager built on this context; [max_int] when
    unlimited. *)
val bdd_ceiling : t -> int

(** [tick_sat t ~site] marks one guarded bounded-SAT call; [true]
    means an armed rule fired and the caller must report budget
    exhaustion (return [None]) without touching the solver. *)
val tick_sat : t -> site:string -> bool

(** Effective conflict limit: the caller's [requested] capped by the
    budget's per-call ceiling and by what remains of the cumulative
    budget ([<= 0] on any side meaning unlimited; the cumulative
    remainder is floored at 1 — see {!sat_exhausted}). *)
val sat_limit : t -> requested:int -> int

(** [true] once a positive cumulative [sat_conflict_budget] is fully
    spent: the caller must report "no verdict" ([None]) without running
    the query. Always [false] for {!none} or an unlimited budget. *)
val sat_exhausted : t -> bool

(** Report [conflicts] consumed by a guarded SAT call back to the
    context's cumulative spend. No-op on {!none}. *)
val sat_spend : t -> conflicts:int -> unit

(** Cumulative conflicts reported so far (diagnostics / tests). *)
val sat_spent : t -> int

(** [check_deadline t ~site] raises {!Blowup}[ Time] when the context's
    deadline has expired (real, [injected = false]) or an armed
    deadline rule fires ([injected = true]). Cancellation points are
    placed so the catcher can always discard the unit's private state
    and fall back to the pre-edit cone. *)
val check_deadline : t -> site:string -> unit
