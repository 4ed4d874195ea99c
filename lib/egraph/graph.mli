(** An e-graph over the AIG node language, with equality saturation.

    The term language is the AIG's: the constant false, primary inputs,
    complement, and two-input conjunction — [And] children are kept
    sorted, so commutativity is a property of hash-consing rather than
    a rewrite rule. E-nodes are hash-consed into e-classes; {!union}
    merges classes and defers congruence repair to a worklist
    {!rebuild}, the egg algorithm. Saturation applies the transforms
    the rest of the stack already owns, as rules: associativity
    rebalancing, complement cancellation (structural, via a canonical
    complement pairing), and the lookahead window rule — resynthesize a
    small window's function by Shannon decomposition, latest-arriving
    leaf first, exactly the paper's [y = Σ·y1 + ¬Σ·y0] shape.

    {b Resource governance.} Every fresh e-node passes
    [Guard.tick_bdd ~site:"egraph.mk_enode"] and is checked against the
    context's node ceiling; each saturation iteration passes
    [Guard.check_deadline ~site:"egraph.saturate"]. A {!Guard.Blowup}
    (real or injected) degrades saturation to best-so-far extraction —
    the e-graph always contains the input circuit, so extraction under
    any cost never does worse than the input. Degradations are recorded
    on the [Det] counter [guard.rung.egraph_best_so_far].

    {b Determinism.} Saturation is sequential and all rule matching
    walks classes in ascending id order, so the e-graph — and hence the
    extracted circuit — is a pure function of the input AIG and the
    guard budget, independent of [-j]. *)

type t

(** E-class id. Always pass through {!find} before comparing. *)
type id = int

type enode =
  | Const  (** constant false *)
  | Input of int  (** primary input, by index *)
  | Not of id  (** complement of an e-class *)
  | And of id * id  (** conjunction; children kept sorted by class id *)

(** An empty e-graph (containing only the constant classes) under an
    optional guard context (default {!Guard.none}). *)
val create : ?guard:Guard.t -> unit -> t

(** Build the e-graph of a circuit: one class per AIG node plus [Not]
    wrappers for complemented literals; output roots are remembered for
    {!extract}. Raises {!Guard.Blowup} if the context's node ceiling
    cannot even hold the input (callers fall back to the input
    circuit — see {!optimize}). *)
val of_aig : ?guard:Guard.t -> Aig.t -> t

val false_id : t -> id
val true_id : t -> id

(** Hash-cons an e-node (children are canonicalized first; constant,
    idempotence and complement folds apply). Ticks the guard and
    raises {!Guard.Blowup} at ["egraph.mk_enode"] when a fresh node
    would cross the ceiling. *)
val add : t -> enode -> id

(** Merge two e-classes; [false] if already equal. Congruence repair is
    deferred — call {!rebuild} before reading the e-graph. *)
val union : t -> id -> id -> bool

val find : t -> id -> id

(** Drain the worklist: recanonicalize the parents of every touched
    class, re-intern them, and union any that became congruent.
    Allocates no new e-nodes, so it never ticks the guard — safe to
    call from a [Blowup] handler before best-so-far extraction. *)
val rebuild : t -> unit

(** Canonical ids of all e-classes, ascending. *)
val classes : t -> id list

(** The e-nodes of a class (canonical forms after a {!rebuild}). *)
val nodes_of : t -> id -> enode list

(** Congruence invariant check (test hook): the worklist is empty,
    every memo key is canonical and maps to its class's root, and every
    node of every class re-canonicalizes to a memo entry of that same
    class — i.e. congruent nodes are never in different classes. *)
val invariants_ok : t -> bool

type outcome =
  | Saturated  (** a full iteration added no classes and no unions *)
  | Iteration_limit  (** iteration or soft node cap reached *)
  | Degraded of Guard.resource
      (** a guard blowup (node ceiling, deadline, or injected fault)
          stopped saturation; the e-graph holds everything learned so
          far and extraction proceeds best-so-far *)

(** Run equality saturation. [max_iters] bounds the iteration count
    (default 8), [max_apps] the window-rule applications per iteration
    (default 24), [max_window] the leaf count of a window (default 6),
    [max_enodes] a soft cap on e-graph growth below the guard's hard
    ceiling (default 50_000). Never raises: blowups are absorbed as
    {!Degraded}. *)
val saturate :
  ?max_iters:int ->
  ?max_apps:int ->
  ?max_window:int ->
  ?max_enodes:int ->
  t ->
  outcome

(** Best extraction cost of a class under a cost function, by the
    standard bottom-up fixpoint (runs {!rebuild} first). *)
val best_cost : t -> Cost.t -> id -> float

(** Extract the cheapest-by-[cost] circuit for the remembered output
    roots (only for {!of_aig}-built graphs). Input count, input names
    and output names match the source circuit. *)
val extract : t -> Cost.t -> Aig.t

(** The packaged tool: build, saturate, extract. A blowup while
    building returns the input unchanged (recorded on the best-so-far
    rung); one during saturation extracts best-so-far. *)
val optimize :
  ?guard:Guard.t ->
  ?max_iters:int ->
  ?max_apps:int ->
  ?max_window:int ->
  ?max_enodes:int ->
  cost:Cost.t ->
  Aig.t ->
  Aig.t
