(** Structural Verilog export of an AIG (assign-based, synthesizable). *)

(** [write ?module_name ppf g] emits one [module] with an [assign] per
    reachable AND gate. Nodes are named as {!Io.node_names} names them,
    and every name is sanitized to a Verilog identifier; an identifier
    that an earlier input, output or wire already took gets the first
    free [_<j>] suffix, so no two declarations share one. *)
val write : ?module_name:string -> Format.formatter -> Graph.t -> unit

val to_string : ?module_name:string -> Graph.t -> string
