(** And-inverter graphs — the decomposed-circuit representation of the
    paper (Sec. 3, "Definitions").

    Nodes are two-input AND gates; edges carry an optional inversion.
    A {e literal} packs a node id and a complement bit as [2*id + c];
    node [0] is the constant false, so literal [0] is false and literal
    [1] is true. Node ids are assigned in topological order (fanins
    always precede a node), which every traversal below relies on.

    Structural hashing with constant folding is applied on construction,
    so building formulas through {!band} and friends already performs
    light optimization. *)

type t
type lit = int

val create : unit -> t

val const_false : lit
val const_true : lit

(** [add_input ?name g] appends a primary input and returns its literal. *)
val add_input : ?name:string -> t -> lit

(** Strashed AND of two literals (folds constants and idempotence). *)
val band : t -> lit -> lit -> lit

val bnot : lit -> lit
val bor : t -> lit -> lit -> lit
val bxor : t -> lit -> lit -> lit
val band_list : t -> lit list -> lit
val bor_list : t -> lit list -> lit

(** [mux g ~sel ~t ~f] is [if sel then t else f]. *)
val mux : t -> sel:lit -> t:lit -> f:lit -> lit

(** [add_output g name l] appends an output. *)
val add_output : t -> string -> lit -> unit

(** Replace the driver of output [i]. *)
val set_output : t -> int -> lit -> unit

val num_inputs : t -> int
val num_ands : t -> int

(** All node ids, [0] (constant) included. *)
val num_nodes : t -> int

val inputs : t -> lit list
val outputs : t -> (string * lit) list

val lit_of_node : int -> bool -> lit
val node_of_lit : lit -> int
val is_complemented : lit -> bool

val is_input : t -> int -> bool
val is_and : t -> int -> bool

(** Position of an input node among the inputs. *)
val input_index : t -> int -> int

val input_name : t -> int -> string option

(** Fanins of an AND node, as literals. *)
val fanins : t -> int -> lit * lit

(** The first and the second literal of {!fanins}, without building the
    pair: for walks that must not allocate per node. *)
val fanin0 : t -> int -> lit

val fanin1 : t -> int -> lit

(** Unit-delay level of every node (inputs and constant at level 0). *)
val levels : t -> int array

(** Level of the deepest output. *)
val depth : t -> int

(** Number of AND nodes in the transitive fanin cones of the outputs
    (the "gates" column of the paper's Table 2). *)
val num_reachable_ands : t -> int

(** Fanout degree of every node, counting output drivers. *)
val fanout_counts : t -> int array

(** Primary-input support (input indices) of a literal's cone. *)
val support_of_lit : t -> lit -> int list

(** [copy_cone ~dst ~src ~map l] recursively copies the cone of literal
    [l] from [src] into [dst]. [map] takes a [src] input node id to a
    [dst] literal; intermediate AND nodes are strashed into [dst]. The
    [memo] table can be shared across calls to reuse copied structure. *)
val copy_cone :
  dst:t -> src:t -> map:(int -> lit) -> ?memo:(int, lit) Hashtbl.t -> lit -> lit

(** Rebuild the graph keeping only the logic reachable from the outputs;
    re-strashes, so structurally duplicate logic merges. Input count and
    order are preserved. *)
val cleanup : t -> t

(** Evaluate all outputs on a single input assignment (bit per input). *)
val eval : t -> bool array -> bool array

(** 64-way parallel simulation: [sim g words] takes one 64-bit word per
    input and returns the per-node words (index = node id). *)
val sim : t -> int64 array -> int64 array

(** Truth table of a literal as a function of all inputs (requires
    [num_inputs g <= 16]). *)
val tt_of_lit : t -> lit -> Logic.Tt.t

val pp_stats : Format.formatter -> t -> unit
