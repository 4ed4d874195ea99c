(** Global node functions: the Boolean function each network node computes
    over the primary inputs, represented as BDDs. Used to globalize cubes
    of node-local functions (the [glob(c)] sets that weight cubes against
    the SPCF in the paper's [Simplify]). *)

(** Per-node global functions; BDD variable [i] is primary input [i].
    [guard] (default {!Guard.none}) adds a per-node deadline
    cancellation point, so a build over a wide cone can be abandoned
    mid-way (the partially filled array is garbage to the caller, who
    must discard it on {!Guard.Blowup}). *)
val of_net : ?guard:Guard.t -> Bdd.man -> Graph.t -> Bdd.t array

(** [of_cluster man net ~nodes] builds the global functions of the
    listed nodes only — [nodes] must be a fanin-closed subset in
    topological order (e.g. a {!Graph.cone}). Entries outside [nodes]
    are unspecified and must not be read. Within one manager, every
    built entry is the same hash-consed edge {!of_net} would produce,
    at the cost of the subset instead of the whole network — the
    per-output decomposition jobs build exactly the cone they read. *)
val of_cluster :
  ?guard:Guard.t -> Bdd.man -> Graph.t -> nodes:int list -> Bdd.t array

(** [update man globals net ~dirty ~fanouts] is [of_net man net] given
    that [globals] was computed (in the same manager) on a network that
    differed from [net] only in the functions of the [dirty] nodes:
    entries outside the transitive fanout of [dirty] are reused
    verbatim, the rest are recomputed. Returns a fresh array; [globals]
    is not mutated. Bit-identical to a from-scratch [of_net] (same
    hash-consed edges).

    [member] restricts the update to a fanin-closed node subset (the
    mask of the cone [globals] was built over, see {!of_cluster}):
    affected nodes outside the mask are skipped and their entries stay
    unspecified.

    When the affected region covers more than half of the (in-scope)
    internal nodes, the per-node affected test is dropped and every
    in-scope internal node is recomputed from scratch — hash-consing
    makes the result identical, and the straight pass is what
    [bench/main.exe incr] showed to be faster on near-global dirty
    regions (counted by the [Det] counter [globals.scratch_fallbacks]). *)
val update :
  ?guard:Guard.t ->
  ?member:bool array ->
  Bdd.man ->
  Bdd.t array ->
  Graph.t ->
  dirty:int list ->
  fanouts:int list array ->
  Bdd.t array

(** [cube_image man globals net id cube] is the set of primary-input
    minterms on which the fanin values of node [id] fall inside [cube]
    (a cube over the node's fanin positions). *)
val cube_image :
  Bdd.man -> Bdd.t array -> Graph.t -> int -> Logic.Cube.t -> Bdd.t

(** [minterm_image man globals net id m] is the image of a single local
    input vector [m] of node [id]. *)
val minterm_image : Bdd.man -> Bdd.t array -> Graph.t -> int -> int -> Bdd.t

(** [tt_image man globals net id tt] is the union of the images of the
    local minterms where [tt] is true (computed by applying [tt] to the
    fanin globals). Memoized per [(node, window)] through the manager's
    [apply_tt] memo, so recomputing an image is O(1). *)
val tt_image : Bdd.man -> Bdd.t array -> Graph.t -> int -> Logic.Tt.t -> Bdd.t
