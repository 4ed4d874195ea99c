(** Simulation-guided resubstitution with SAT verification.

    For each deep node, the pass searches for an equivalent re-expression
    in terms of two existing shallower nodes (any AND/OR/XOR with input
    polarities): candidates are filtered by random-simulation signatures
    and proven with the SAT solver before the node is rewired. A classic
    delay-oriented cleanup that complements cut rewriting (it can jump
    across cut boundaries). *)

(** [run g] returns an equivalent graph. Signatures are eight 64-bit
    simulation words wide, and at most 600 SAT calls are made. *)
val run : Graph.t -> Graph.t
