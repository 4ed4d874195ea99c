(** Logic-level quantification for the technology-independent network
    (Sec. 3.1, "Quantifying logic levels in T").

    The level of a node is computed from the minimum SOP covers of its
    on-set and off-set: each prime-implicant cube contributes an optimal
    AND-tree depth over its literals' fanin levels; the cover contributes
    an optimal OR-tree over the cube depths; the node level is the
    smaller of the on-set and off-set values (the cheaper polarity).
    Optimal tree depth for a level multiset is obtained by always merging
    the two shallowest items (Huffman order). *)

(** [tree_depth levels] is the depth of an optimal binary tree whose
    leaves arrive at the given levels; [0] for the empty and singleton
    cases where no gate is needed. *)
val tree_depth : int list -> int

(** [sop_depth sop ~fanin_level] is the optimal OR-of-AND depth of a
    cover given the level of each SOP variable. *)
val sop_depth : Logic.Sop.t -> fanin_level:(int -> int) -> int

(** [node_level net ~levels id] is the level of node [id] given the
    levels of its fanins (read from [levels]). Inputs are level 0. *)
val node_level : Graph.t -> levels:int array -> int -> int

(** Levels of all nodes in topological order. *)
val compute : Graph.t -> int array

(** Incremental levels with dirty-region repair.

    After a {!Graph.set_func} edit, call {!Inc.invalidate} with the
    edited node; {!Inc.levels} then repairs only the transitive fanout
    of the dirty set (pruned where a recomputed level is unchanged) and
    returns an array identical to a from-scratch {!compute}.

    Contract: the wiring of the network must not change over the
    lifetime of an [Inc.t] (no [add_node] / [add_input]; [set_output]
    is fine — levels are per-node). The returned array is the engine's
    internal state: treat it as read-only, and re-fetch it after the
    next [invalidate]/[levels] cycle (repair mutates it in place). *)
module Inc : sig
  type t

  (** Fresh engine; computes the initial levels from scratch. *)
  val create : Graph.t -> t

  (** [of_levels net ~fanouts levels] adopts known-correct [levels]
      (copied) instead of recomputing — e.g. for a {!Graph.copy} whose
      functions are still identical to the network [levels] came from.
      [fanouts] may be shared across copies: it depends on wiring only. *)
  val of_levels : Graph.t -> fanouts:int list array -> int array -> t

  (** Mark a node whose function was edited. O(log dirty). *)
  val invalidate : t -> int -> unit

  (** Repaired levels of all nodes (see the contract above). *)
  val levels : t -> int array
end

(** Level of the deepest output. *)
val depth : Graph.t -> int

(** [critical_inputs net ~levels id] are the fanin positions whose level
    reduction is a necessary condition for reducing the node's level —
    operationally, the positions carrying the maximum fanin level. When
    every fanin is at level 0 (the node's own structure dominates) no
    input is critical. *)
val critical_inputs : Graph.t -> levels:int array -> int -> int list
