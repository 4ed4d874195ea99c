(** Reading and writing circuits (BLIF subset and ISCAS BENCH formats). *)

(** The graph as flat BLIF text: a two-input [.names] per AND gate,
    one-input [.names] for inverted and renamed outputs. Inputs keep
    their names; an unnamed input is [pi<k>] after its position [k],
    and AND node [id] is [n<id>]. Such a default name that is also an
    input or output name becomes [<default>_<j>], the first one free,
    so the text always reads back as the same circuit. *)
val blif_to_string : ?model:string -> Graph.t -> string

(** [node_names g] names every node of [g] as the writers print it, by
    node id: an input its own name, or [pi<k>]; AND node [id] is
    [n<id>], or [n<id>_<j>] when an input or output name is [n<id>]
    (see {!blif_to_string}). An AND node with the plain default has
    [""] in the array; {!name_of} reads either kind. *)
val node_names : Graph.t -> string array

(** [name_of names id] is node [id]'s name in [node_names g]. *)
val name_of : string array -> int -> string

(** Parse a combinational BLIF subset: [.model], [.inputs], [.outputs],
    single-output [.names] with cube tables (on-set or off-set rows).
    Raises [Failure] on unsupported constructs ([.latch], multiple
    models). *)
val read_blif : string -> Graph.t

(** Write in ISCAS-89 BENCH style using AND/NOT gates, with the node
    names of {!blif_to_string}. *)
val write_bench : Format.formatter -> Graph.t -> unit

(** Parse BENCH: [INPUT], [OUTPUT], and gates
    AND/OR/NAND/NOR/XOR/XNOR/NOT/BUFF with any number of operands
    (where sensible). Order-independent. *)
val read_bench : string -> Graph.t
