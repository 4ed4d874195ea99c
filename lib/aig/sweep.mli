(** Redundancy elimination — the paper's area-recovery step. *)

(** [sat_sweep ?guard g] merges proven-equivalent nodes of [g]'s live
    part with {!Cec.sweep}, the fraig engine that also checks every
    miter: it never deepens a node and never adds an AND. [guard]
    (default {!Guard.none}) governs the bounded per-candidate proof
    queries: an exhausted or injected budget skips the merge (always
    sound). *)
val sat_sweep : ?guard:Guard.t -> Graph.t -> Graph.t
