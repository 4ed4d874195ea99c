(** Cut-based structural technology mapping onto {!Library.cells}.

    Classic phase-aware covering: 4-feasible cuts are matched against a
    precomputed index of all permutation / input-phase / output-phase
    variants of every cell, looked up by cut size and the cut's truth
    table packed in an int; dynamic programming picks the
    minimum-arrival match for each (node, phase); the cover is extracted
    from the outputs, inserting inverters where a phase is not produced
    natively. Delay is then re-evaluated with the load model
    (intrinsic + load_factor * fanout capacitance). *)

(** Reference to the value of AIG node [node], possibly inverted. *)
type signal = { node : int; inverted : bool }

type gate = {
  cell : Library.cell;
  fanins : signal array;  (** in cell-input order *)
  out : signal;
}

type netlist = {
  gates : gate list;  (** topological order *)
  primary_inputs : int list;  (** AIG node ids *)
  primary_outputs : (string * signal) list;
  source : Aig.t;
}

(** [map g] covers the AIG with library gates. *)
val map : Aig.t -> netlist

(** Number of gates (inverters included). *)
val num_gates : netlist -> int

(** Total cell area (INV = 1). *)
val area : netlist -> float

(** Load on each produced signal, keyed by [(node, inverted)]: the
    input capacitance of every pin it drives, plus 2 fF per output. *)
val loads : netlist -> (int * bool, float) Hashtbl.t

(** Arrival time in ps of every gate output, keyed like {!loads}:
    latest fanin arrival + intrinsic + load factor × [load]. *)
val arrivals :
  load:(int * bool, float) Hashtbl.t -> netlist -> (int * bool, float) Hashtbl.t

(** Critical-path delay in ps under the load model, with 2 fF of load on
    every primary output: the latest of {!arrivals} over the primary
    outputs. *)
val delay : netlist -> float

(** [delay_with ~load n] is {!delay} under the load table [load], which
    must be [loads n]: for a caller that reads the same table again. *)
val delay_with : load:(int * bool, float) Hashtbl.t -> netlist -> float

(** [check netlist] verifies the mapped netlist against its source AIG by
    16 rounds of 64-bit random simulation; used by the test suite. *)
val check : netlist -> bool
