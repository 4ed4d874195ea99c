(** Hash-consed reduced ordered binary decision diagrams.

    The manager owns a flat array-of-ints node store, the
    open-addressing unique table, and bounded open-addressing operation
    caches. Edges carry a complement bit, so negation is O(1) and a
    function and its complement share one subgraph. Nodes from the same
    manager compare equal iff they represent the same function
    (canonicity), so {!equal} is constant time. Variable [0] is at the
    top of the order; the manager grows its variable count on demand.

    BDDs carry the global node functions of the technology-independent
    network and the speed-path characteristic function (SPCF); satisfying
    fractions computed here are the cube weights of the paper's
    [Simplify] procedure. *)

type man
type t

(** [create ?guard ()] makes a fresh manager. Its ite cache starts at
    2^14 entries and the restrict/compose caches at 2^10; all op caches
    grow by doubling under pressure up to a fixed cap.

    [guard] governs the manager: allocation past the budget's
    [bdd_node_ceiling] raises {!Guard.Blowup}[ Bdd_nodes] from the
    single allocation point, and every public operation ([ite] and the
    derived connectives, [restrict], [compose], [apply_tt]) is an
    injection tick site. A blowup leaves the manager internally
    consistent (every stored node is canonical), so the caller may
    discard results built from it and retry elsewhere. Default
    {!Guard.none}: unlimited, no ticks. *)
val create : ?guard:Guard.t -> unit -> man

val bfalse : man -> t
val btrue : man -> t

(** [var m i] is the projection of variable [i] (grows the manager). *)
val var : man -> int -> t

(** Number of variables the manager has seen. *)
val num_vars : man -> int

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

(** Constant-time structural equality (valid within one manager). *)
val equal : t -> t -> bool

val is_false : man -> t -> bool
val is_true : man -> t -> bool

(** [disjoint m f g] decides [f ∧ g = 0] without building the
    conjunction: a joint cofactor walk that allocates no node and stops
    at the first path on which both are true. Verdicts are cached in
    the ite cache; the call ticks the guard once, at [band]'s site
    ([bdd.ite]), so it can stand in for [is_false m (band m f g)]. *)
val disjoint : man -> t -> t -> bool

(** [implies m f g] decides [f <= g], as [disjoint m f (bnot m g)]. *)
val implies : man -> t -> t -> bool

(** [restrict m f i b] is the cofactor of [f] with [x_i = b]. *)
val restrict : man -> t -> int -> bool -> t

(** [compose m f i g] substitutes [g] for variable [i] in [f]. *)
val compose : man -> t -> int -> t -> t

(** [exists m vars f] quantifies the listed variables away. *)
val exists : man -> int list -> t -> t

(** [apply_tt m tt args] interprets truth table [tt] as a function applied
    to the argument BDDs: the global function of a network node whose
    fanins have global functions [args]. [Array.length args] must equal
    [Tt.num_vars tt]. Memoized per [(tt, args)] in the manager, so
    recomputing the image of the same window at the same node is O(1). *)
val apply_tt : man -> Logic.Tt.t -> t array -> t

(** [satcount m ~nvars f] is the number of satisfying minterms of [f] over
    a space of [nvars] variables, as a float (spaces can exceed 2^62).
    Per-node satisfying fractions are memoized in a manager scratch table
    for the manager's lifetime. *)
val satcount : man -> nvars:int -> t -> float

(** Some satisfying assignment as [(var, value)] pairs on the variables the
    function depends on; [None] when the function is false. *)
val any_sat : man -> t -> (int * bool) list option

(** Variables the function depends on, ascending. *)
val support : man -> t -> int list

(** Number of internal nodes reachable from [f] (complement-shared nodes
    counted once). *)
val size : man -> t -> int

(** Live counters for the node store and the operation caches. *)
type stats = {
  live_nodes : int;  (** internal nodes currently in the unique table *)
  total_allocated : int;  (** nodes ever allocated, terminal included *)
  unique_capacity : int;
  unique_growths : int;  (** unique-table doublings since [create] *)
  ite_cache_capacity : int;
  ite_lookups : int;
  ite_hits : int;
  ite_cache_growths : int;
  restrict_cache_capacity : int;
  restrict_lookups : int;
  restrict_hits : int;
  restrict_cache_growths : int;
  compose_cache_capacity : int;
  compose_lookups : int;
  compose_hits : int;
  compose_cache_growths : int;
  apply_memo_entries : int;
}

val stats : man -> stats

(** Drop every op-cache entry, the [apply_tt] memo and the per-node
    [satcount] scratch (the node store and unique table are untouched,
    so existing edges stay valid). Results never depend on these memos,
    so tests flush them to check exactly that. *)
val clear_caches : man -> unit

(** Whole-store canonical-form audit: no node with [lo = hi], no
    complement bit on a [hi] edge, variables strictly increasing along
    every edge. Intended for tests. *)
val check_canonical : man -> bool
