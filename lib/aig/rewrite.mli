(** Cut-based resynthesis (the `rewrite`/`refactor` family).

    Every AND node is considered with its k-feasible cuts; the cut function
    is re-synthesized from a minimum cover ({!Synth.of_tt}) and the better
    structure — by level for [`Delay], by node count for [`Area] — replaces
    the plain copy. Graphs are rebuilt functionally, so the pass is safe to
    iterate. *)

type objective = [ `Delay | `Area ]

(** [run ?k ?per_node ~objective g] is an equivalent rewritten graph. *)
val run : ?k:int -> ?per_node:int -> objective:objective -> Graph.t -> Graph.t

(** One step of {!delay_fixpoint}: a [`Delay] rewrite ([k = 6],
    [per_node = 8]) followed by {!Balance.run}. *)
val delay_step : Graph.t -> Graph.t

(** [fixpoint ~step g] runs [step] on [g], then up to six more steps,
    each kept only while depth falls, or depth ties and the AND count
    falls. The last step computed is the one rejected, unless all six
    were kept. *)
val fixpoint : step:(Graph.t -> Graph.t) -> Graph.t -> Graph.t

(** [delay_fixpoint g] is the conventional delay cleanup:
    [fixpoint ~step:delay_step g]. *)
val delay_fixpoint : Graph.t -> Graph.t
