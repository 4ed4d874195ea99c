(* See eval.mli. *)

type summary = {
  cells : int;
  area : float;
  delay_ps : float;
  power_mw : float;
}

let measure g =
  let netlist = Mapper.map g in
  let load = Mapper.loads netlist in
  {
    cells = Mapper.num_gates netlist;
    area = Mapper.area netlist;
    delay_ps = Mapper.delay_with ~load netlist;
    power_mw = Power.dynamic_mw_with ~load netlist;
  }

let and2 = Library.find "AND2"

(* Intrinsic plus a fanout-of-one load of the cell's own input cap:
   the logical-effort delay of a gate driving one copy of itself. *)
let fo1_delay (c : Library.cell) = c.intrinsic +. (c.load_factor *. c.input_cap)

(* Dynamic power of the cell's input pins toggling every cycle:
   alpha * C * V^2 * f with alpha = 1, in mW (caps are fF). *)
let pin_power (c : Library.cell) =
  float_of_int c.arity *. c.input_cap *. 1e-15 *. Library.vdd *. Library.vdd
  *. Library.clock_hz *. 1e3

let and_area = and2.Library.area
let and_delay_ps = fo1_delay and2
let and_power_mw = pin_power and2
