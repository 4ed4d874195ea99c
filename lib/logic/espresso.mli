(** An espresso-style heuristic two-level minimizer.

    The classic loop over a cover of an incompletely specified function:

    - {b EXPAND} each cube against the off-set to a prime;
    - {b IRREDUNDANT} drops cubes covered by the rest of the cover;
    - {b REDUCE} shrinks each cube to the smallest cube still covering
      its share of the on-set, enabling a different expansion next
      iteration.

    The loop stops when the cost (cube count, then literal count) stops
    improving. Unlike {!Minimize.minimum_cover}, which grows primes
    from every on-set minterm, this scales to wider node functions
    because it only ever expands the cubes of its current cover; it is
    the engine used for node functions above 8 variables. *)

(** [minimize ~on ~dc] is an irredundant prime cover of the function.
    Requires [on] and [dc] disjoint. *)
val minimize : on:Tt.t -> dc:Tt.t -> Sop.t

(** One EXPAND pass: every cube of [cover] is expanded to a prime
    against [off]. Exposed for testing. *)
val expand : off:Tt.t -> Sop.t -> Sop.t

(** One IRREDUNDANT pass: drops cubes whose on-set contribution is
    covered by the remaining cubes and [dc]. Exposed for testing. *)
val irredundant : on:Tt.t -> dc:Tt.t -> Sop.t -> Sop.t

(** One REDUCE pass. Exposed for testing. *)
val reduce : on:Tt.t -> dc:Tt.t -> Sop.t -> Sop.t
