(** K-feasible cut enumeration with priority pruning.

    A cut of node [n] is a set of node ids such that every path from the
    inputs to [n] passes through the set. Cuts feed the resynthesis pass
    ({!Rewrite}), the clustering step that builds the
    technology-independent network (the paper's `renode`) and the
    technology mapper. *)

type cut

(** Node ids, sorted ascending. *)
val leaves : cut -> int array

(** Function of the root in terms of the leaves, computed on each read
    by a walk of the root's cone down to the leaves; nothing is kept,
    so a cut that is never read costs no table. The walk runs on one
    word buffer shared by every cut of one enumeration, so read the
    tables of one enumeration on the domain that made it. *)
val tt : cut -> Logic.Tt.t

(** [table c] is {!tt} packed into an int, bit [m] the value on minterm
    [m], for a cut of at most 5 leaves: the same walk, with no table
    allocated. Raises [Invalid_argument] on a larger cut. *)
val table : cut -> int

(** [enumerate g ~k ~per_node] computes for each node a list of cuts with
    at most [k] leaves, keeping at most [per_node] non-trivial cuts per
    node. Index of the result is the node id; the trivial cut
    [{n}] is always included. No table is computed here. *)
val enumerate : Graph.t -> k:int -> per_node:int -> cut list array
