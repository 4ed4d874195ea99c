(** Secondary simplification (Sec. 3.1): derive the network for [y1].

    With the window function fixed by the primary pass, the circuit only
    has to be correct on the complement of the window. Every node of the
    output's cone is re-minimized against that care set: a local minterm
    whose global image misses the care set becomes a don't-care, and the
    node function is re-covered by two-level minimization. The only
    objective is level reduction (the paper: "the Boolean function of
    every node is simplified and all cubes with weight equal to zero are
    replaced with a don't care"). *)

(** [run man ~globals ~care net ~analysis ~out] edits [net] (a fresh
    copy of the original) in place and returns the ids of the nodes it
    changed, in cone order. [globals] are the original global functions
    — the wiring of [net] must be identical to the network they were
    computed on. [analysis] is the cache for [net]; every edit is
    recorded there with {!Network.Analysis.invalidate}, so the caller's
    next level query repairs only the dirty region. *)
val run :
  Bdd.man ->
  globals:Bdd.t array ->
  care:Bdd.t ->
  Network.t ->
  analysis:Network.Analysis.t ->
  out:Network.output ->
  int list

(** [resimplify man ~globals ~care ~levels net id] re-covers node [id]
    against its local don't-cares, the fanin minterms whose global
    image misses [care], keeping the polarity whose cover is shallower
    under [levels] (with [~by_literals:true], a depth tie goes to fewer
    literals; then to the positive one). [None] when nothing changes.
    {!run} passes the window complement as [care], {!Mfs} the node's
    observability. *)
val resimplify :
  Bdd.man ->
  globals:Bdd.t array ->
  care:Bdd.t ->
  levels:int array ->
  ?by_literals:bool ->
  Network.t ->
  int ->
  Logic.Tt.t option
