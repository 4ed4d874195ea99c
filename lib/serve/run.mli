(** The steps of one job as library calls: build the circuit, run the
    [-t] tool, measure, serialize. One sequence calls them, the
    engine's, for a served job and for a [lookahead_opt opt] run alike
    ({!Engine.run_cold}); byte-identity between the two follows from
    there being one sequence. *)

(** Build the circuit of a wire source. Raises on unknown names, bad
    adder kinds, or unparsable BLIF/BENCH text. *)
val build_source : Msg.source -> Aig.t

(** The generated adder kinds ([ripple], [cla], ...), in the order
    {!build_source} knows them. *)
val adder_kinds : string list

(** The optimizer dispatch of the CLI's [-t] flag. [options] is used by
    the lookahead, egraph and portfolio tools (its budget/deadline
    govern their guards; the baselines take no knobs). [egraph] and
    [portfolio] accept an optional [:COST] suffix naming an
    {!Egraph.Cost} function ([levels] when omitted), e.g.
    ["portfolio:delay"]. Raises [Invalid_argument] on an unknown tool
    or cost name. *)
val tool : options:Lookahead.Driver.options -> string -> Aig.t -> Aig.t

val known_tools : string list

(** Split a tool spec into its base name and optional [:COST] suffix. *)
val split_tool : string -> string * string option

(** Validate a full tool spec — base name plus, for [egraph] and
    [portfolio] only, an optional known [:COST] suffix. This, not
    [List.mem … known_tools], is what {!Engine.validate} consults. *)
val tool_known : string -> bool

(** Measure the Table-2 metric set of the optimized circuit against
    the original. *)
val metrics : original:Aig.t -> Aig.t -> Msg.metrics

(** Pretty-print in the CLI's report format. *)
val pp_metrics :
  circuit:string -> tool:string -> Format.formatter -> Msg.metrics -> unit

(** Whether the snapshot records any degradation-ladder rung or
    injected fault — the "this job degraded" bit of a result. *)
val degraded : Obs.snapshot -> bool

(** Serialize as the CLI's [-o] flag would ([model] = circuit name). *)
val blif_of : name:string -> Aig.t -> string
