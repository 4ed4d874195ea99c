(** Two-level minimization: irredundant covers and prime-based minimum
    covers for node-local functions.

    The paper's level-quantification and [Simplify] steps operate on
    "minimum SOP" representations of the on-set and off-set of each node
    (Sec. 3.1). [isop] gives the classic Minato-Morreale irredundant
    sum-of-products between a lower and an upper bound; [minimum_cover]
    grows primes from the on-set minterms and extracts an
    essential-plus-greedy cover, which is minimum or near-minimum for the
    small functions that appear as network nodes. [isop] and the
    covers of tables with more than 6 variables work on the truth-table
    words; a table of at most 6 variables is covered on native ints,
    with the same primes and the same cover, cube for cube. *)

(** [isop ~lower ~upper] is an irredundant cover [c] with
    [lower <= c <= upper]. Requires [lower <= upper]. *)
val isop : lower:Tt.t -> upper:Tt.t -> Sop.t

(** [primes ~on ~dc] are prime implicants of [on + dc], though not
    necessarily all of them. Each on-set minterm is grown into a prime by
    dropping its literals greedily, in each of the cyclic variable orders
    that start at variables [0, 1, ..., min(n, 4)] (the orders wrap, so
    [n <= 4] gives [n] of them); a literal is dropped when the grown cube
    stays inside [on + dc]. The result has no repeats and is sorted by
    {!Cube.compare}: mask, then bits. *)
val primes : on:Tt.t -> dc:Tt.t -> Cube.t list

(** [minimum_cover ~on ~dc] covers every on-set minterm with {!primes}:
    essential primes first, in ascending order of the minterm each is the
    sole cover of; then greedy picks, each the first prime (in {!primes}
    order) with the most still-uncovered minterms; then one redundancy
    pass. The cube order of the result is deterministic and callers
    depend on it: [Aig.Synth] factors the cubes in this order. *)
val minimum_cover : on:Tt.t -> dc:Tt.t -> Sop.t

(** [min_sops f] is the pair (cover of the on-set, cover of the off-set)
    using [minimum_cover] with empty don't-care sets — the paper's 1-SOP
    and 0-SOP of a node function. Memoized by truth table, one memo per
    domain, so it is safe to call from several domains at once. Each
    domain's memo is emptied when it passes 200 k entries; the bound is
    per domain, not per process. *)
val min_sops : Tt.t -> Sop.t * Sop.t
