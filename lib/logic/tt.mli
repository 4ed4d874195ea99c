(** Bit-packed truth tables.

    A value of type {!t} represents a completely specified Boolean function
    of [num_vars] variables as a packed bit vector of [2^num_vars] bits.
    Variable [i] has period [2^i]: bit [m] of the table is the value of the
    function on the minterm whose [i]-th input is [(m lsr i) land 1].

    Truth tables are the working representation for node-local functions in
    the technology-independent network (typically 8 or fewer inputs). *)

type t

(** [create n] is the constant-false function of [n] variables
    (0 <= n <= 20). *)
val create : int -> t

val num_vars : t -> int

(** Number of minterms, [2^num_vars]. *)
val size : t -> int

val const_false : int -> t
val const_true : int -> t

(** [var n i] is the projection function of variable [i] among [n]. *)
val var : int -> int -> t

(** [get_bit f m] is the value of [f] on minterm [m]. *)
val get_bit : t -> int -> bool

val lnot : t -> t
val land_ : t -> t -> t
val lor_ : t -> t -> t
val lxor_ : t -> t -> t

(** [equiv f g] is the function that is true where [f = g]. *)
val equiv : t -> t -> t

val equal : t -> t -> bool
val is_const_false : t -> bool
val is_const_true : t -> bool

(** [cofactor f i b] fixes variable [i] to [b]; the result still has
    [num_vars] variables but no longer depends on [i]. *)
val cofactor : t -> int -> bool -> t

(** [depends_on f i] is true when [f] is not constant in variable [i]. *)
val depends_on : t -> int -> bool

(** Indices of the variables [f] actually depends on, ascending. *)
val support : t -> int list

(** Number of minterms on which the function is true. *)
val count_ones : t -> int

(** [exists f i] is the existential quantification of variable [i]. *)
val exists : t -> int -> t

(** [compose f i g] substitutes function [g] for variable [i] in [f]. *)
val compose : t -> int -> t -> t

(** [permute f perm] renames variable [i] to [perm.(i)]; [perm] must be a
    permutation of [0 .. num_vars - 1]. *)
val permute : t -> int array -> t

(** [of_minterms n ms] is the function of [n] variables true exactly on the
    listed minterms. *)
val of_minterms : int -> int list -> t

val minterms : t -> int list

(** [of_fun n f] tabulates [f] over the [2^n] minterms. *)
val of_fun : int -> (int -> bool) -> t

(** [of_words n ws] is the function of [n] variables whose packed words
    are [ws]: word [w] holds minterms [64 w] to [64 w + 63], bit [m]
    of the table as in {!get_bit}. [ws] must hold one word when
    [n <= 6] and [2^(n - 6)] words otherwise. It is taken, not copied,
    and bits past [2^n] are cleared. *)
val of_words : int -> int64 array -> t

(** [cube n ~mask ~bits] is true on the minterms [m] with
    [m land mask = bits]: the cube binding variable [i] to bit [i] of
    [bits] wherever bit [i] of [mask] is set. [bits] must be 0 outside
    [mask]. *)
val cube : int -> mask:int -> bits:int -> t

(** [grow_cube f ~minterm ~start] grows the cube of [minterm], a minterm
    of [f], into a prime implicant of [f]. It tries to drop the literals
    one at a time in the cyclic variable order that starts at [start]
    ([start, start + 1, ..., n - 1, 0, ..., start - 1]) and drops each
    one whose removal keeps the cube inside [f]. The prime is returned
    packed as [(mask lsl n) lor bits], in the convention of {!cube}, so
    that integer order is mask order, then bits order. *)
val grow_cube : t -> minterm:int -> start:int -> int

(** [half f h] is half [h] (0 or 1) of the table of [f], which has at
    most 6 variables, as a native int: bit [j] is the value on minterm
    [32 h + j]. Bits past [2^n] are 0. *)
val half : t -> int -> int

(** Random table over [n] variables using the given state. *)
val random : Random.State.t -> int -> t

(** Hex dump, most significant word first; for debugging and hashing. *)
val to_hex : t -> string

val pp : Format.formatter -> t -> unit
val hash : t -> int
val compare : t -> t -> int

(** Hash tables keyed by truth table ([equal], [hash]). *)
module Tbl : Hashtbl.S with type key = t
