(** Dynamic-power estimation for mapped netlists at the paper's operating
    point (1 GHz, Table 2).

    Signal probabilities come from random simulation of the source AIG;
    the switching activity of a net is [2 p (1-p)] (temporal
    independence), and the dynamic power is
    [sum over nets of 1/2 * activity * C_load * Vdd^2 * f]. *)

(** Power in mW at {!Library.clock_hz} and {!Library.vdd}, from 32
    rounds of 64-bit random simulation. *)
val dynamic_mw : Mapper.netlist -> float

(** [dynamic_mw_with ~load n] is {!dynamic_mw} with the nets priced from
    [load], which must be [Mapper.loads n]; the sum runs in that table's
    fold order, so the figure is the same bits as {!dynamic_mw}'s. *)
val dynamic_mw_with : load:(int * bool, float) Hashtbl.t -> Mapper.netlist -> float
