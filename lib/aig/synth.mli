(** Building AIG structure from two-level and truth-table functions.

    Covers are factored algebraically (quick-factor style: common-literal
    extraction, then division by the most frequent literal) and emitted as
    level-balanced AND/OR trees. [of_tt] tries both output polarities and
    keeps the shallower structure; it is the back-end of cut resynthesis
    and of the network-to-AIG conversion. *)

(** [and_tree g lev lits] is the balanced conjunction of the literals. *)
val and_tree : Graph.t -> Lev.t -> Graph.lit list -> Graph.lit

(** [or_tree g lev lits] is the balanced disjunction. *)
val or_tree : Graph.t -> Lev.t -> Graph.lit list -> Graph.lit

(** [divisor sop] is the literal [(var, value)] that [of_sop] divides
    [sop] by: its most frequent literal, if that occurs at least twice.
    Ties go to the literal an unseeded [Hashtbl.create 16] filled in
    first-occurrence order visits first (DESIGN.md §4); that order
    reaches every output. *)
val divisor : Logic.Sop.t -> (int * bool) option

(** [of_sop g lev sop ~leaf] emits the factored cover; [leaf i] gives the
    literal for SOP variable [i]. [leaf] is called in a fixed order
    (cubes in cover order, literals by ascending variable, a divisor
    after its quotient), so a [leaf] that builds nodes builds them in
    that order. *)
val of_sop : Graph.t -> Lev.t -> Logic.Sop.t -> leaf:(int -> Graph.lit) -> Graph.lit

(** [of_tt g lev tt ~leaf] builds the function, choosing the cheaper of the
    on-set and off-set covers. *)
val of_tt : Graph.t -> Lev.t -> Logic.Tt.t -> leaf:(int -> Graph.lit) -> Graph.lit
