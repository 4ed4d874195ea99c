(** K-feasible cut enumeration with priority pruning.

    A cut of node [n] is a set of node ids such that every path from the
    inputs to [n] passes through the set. Cuts feed the resynthesis pass
    ({!Rewrite}) and the clustering step that builds the
    technology-independent network (the paper's `renode`). *)

type cut = {
  leaves : int array;  (** node ids, sorted ascending *)
  tt : Logic.Tt.t;  (** function of the root in terms of the leaves *)
}

(** [enumerate g ~k ~per_node] computes for each node a list of cuts with
    at most [k] leaves, keeping at most [per_node] non-trivial cuts per
    node. Index of the result is the node id; the trivial cut
    [{n}] is always included. *)
val enumerate : Graph.t -> k:int -> per_node:int -> cut list array

