(** Redundancy elimination — the paper's area-recovery step.

    [sat_sweep] detects functionally equivalent internal nodes (up to
    complementation) with random simulation and proves candidate merges
    with the SAT solver before rewiring; [cleanup] removes dangling and
    structurally duplicate logic. *)

(** Structural cleanup ({!Graph.cleanup}). *)
val cleanup : Graph.t -> Graph.t

(** [sat_sweep ?guard g] merges proven-equivalent nodes. Eight 64-bit
    random simulation rounds partition the candidates, and at most
    2000 candidate pairs are SAT-checked. [guard] (default
    {!Guard.none}) governs the per-pair proof queries: an exhausted or
    injected budget skips the merge (always sound). *)
val sat_sweep : ?guard:Guard.t -> Graph.t -> Graph.t
