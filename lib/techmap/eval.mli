(** Whole-circuit metric evaluation and node-local cost weights.

    The Table-2 reporting path ([Serve.Run.metrics]) and the e-graph's
    cost-generic extraction both need "map once, read the mapped
    numbers"; {!measure} is that sequence as one call, so the two
    cannot drift. The [and_*] weights are per-node proxies for
    bottom-up extraction costs, derived from the {!Library} cells: they
    only have to rank candidate terms, the authoritative number is
    always {!measure} of the extracted circuit. *)

type summary = {
  cells : int;
  area : float;
  delay_ps : float;
  power_mw : float;
}

(** Map the AIG once ({!Mapper.map}) and read cell count, area, delay
    and dynamic power off the netlist — the exact calls, in the exact
    order, of the job's metric report ([Serve.Run.metrics]). The delay
    and the power read one load table ({!Mapper.loads}), built once. *)
val measure : Aig.t -> summary

(** {1 Node-local weights}

    AND2 cell constants for per-node extraction costs: [area] is
    the cell area, [delay_ps] the intrinsic plus one fanout-of-one
    load, [power_mw] the dynamic power of the cell's input pins
    switching every cycle at the library clock. *)

val and_area : float
val and_delay_ps : float
val and_power_mw : float
