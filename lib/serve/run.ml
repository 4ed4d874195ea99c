(* See run.mli. *)

let adders =
  [
    ("ripple", Circuits.Adders.ripple_carry);
    ("cla", Circuits.Adders.carry_lookahead);
    ("select", fun n -> Circuits.Adders.carry_select n);
    ("skip", fun n -> Circuits.Adders.carry_skip n);
  ]

let adder_kinds = List.map fst adders

let build_adder kind n =
  match List.assoc_opt kind adders with
  | Some build -> build n
  | None -> invalid_arg (Printf.sprintf "unknown adder kind %s" kind)

let build_source = function
  | Msg.Named name -> Circuits.Suite.build name
  | Msg.Blif { text; _ } -> Aig.Io.read_blif text
  | Msg.Bench { text; _ } -> Aig.Io.read_bench text
  | Msg.Adder { kind; bits } -> build_adder kind bits

let known_tools =
  [ "lookahead"; "resub"; "mfs"; "none"; "sis"; "abc"; "dc"; "egraph";
    "portfolio" ]

(* "egraph:delay" / "portfolio:area" — a tool name with an optional
   cost-function suffix. Plain names parse as (name, None). *)
let split_tool spec =
  match String.index_opt spec ':' with
  | None -> (spec, None)
  | Some i ->
    ( String.sub spec 0 i,
      Some (String.sub spec (i + 1) (String.length spec - i - 1)) )

let cost_of = function
  | None -> Some Egraph.Cost.levels
  | Some name -> Egraph.Cost.of_name name

let tool_known spec =
  let base, cost = split_tool spec in
  List.mem base known_tools
  && (cost = None || cost_of cost <> None)
  && (cost = None || base = "egraph" || base = "portfolio")

let tool ~options spec =
  let base, cost_name = split_tool spec in
  let cost () =
    match cost_of cost_name with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "unknown cost function in %s" spec)
  in
  match base with
  | "lookahead" -> fun g -> Lookahead.optimize ~options g
  | "resub" -> fun g -> Aig.Resub.run (Aig.Balance.run g)
  | "mfs" -> fun g -> Lookahead.Mfs.run g
  | "none" -> Fun.id
  | "egraph" ->
    let cost = cost () in
    fun g ->
      let guard =
        Guard.create
          ~deadline:(Lookahead.Driver.deadline_of options)
          options.Lookahead.Driver.guard_budget
      in
      Egraph.optimize ~guard ~cost g
  | "portfolio" ->
    let cost = cost () in
    fun g -> Egraph.Portfolio.run ~options ~cost g
  | name -> (
    match Baselines.by_name name with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "unknown tool %s" name))

let metrics ~original optimized =
  let m = Techmap.Eval.measure optimized in
  {
    Msg.pi = Aig.num_inputs optimized;
    po = List.length (Aig.outputs optimized);
    gates_before = Aig.num_reachable_ands original;
    gates = Aig.num_reachable_ands optimized;
    levels_before = Aig.depth original;
    levels = Aig.depth optimized;
    cells = m.Techmap.Eval.cells;
    area = m.Techmap.Eval.area;
    delay_ps = m.Techmap.Eval.delay_ps;
    power_mw = m.Techmap.Eval.power_mw;
  }

let pp_metrics ~circuit ~tool ppf (m : Msg.metrics) =
  Fmt.pf ppf "circuit   : %s@." circuit;
  Fmt.pf ppf "tool      : %s@." tool;
  Fmt.pf ppf "pi/po     : %d/%d@." m.pi m.po;
  Fmt.pf ppf "aig gates : %d (was %d)@." m.gates m.gates_before;
  Fmt.pf ppf "aig levels: %d (was %d)@." m.levels m.levels_before;
  Fmt.pf ppf "mapped    : %d cells, area %.1f@." m.cells m.area;
  Fmt.pf ppf "delay     : %.1f ps@." m.delay_ps;
  Fmt.pf ppf "power     : %.3f mW @@ 1GHz@." m.power_mw

(* A job "degraded" when any ladder rung was taken or any fault was
   injected — the same counters gate 5 watches. *)
let degraded snap =
  Obs.counter_value snap "guard.rung.approx_spcf"
  + Obs.counter_value snap "guard.rung.shrink_window"
  + Obs.counter_value snap "guard.rung.skip_output"
  + Obs.counter_value snap "guard.rung.egraph_best_so_far"
  + Obs.counter_value snap "guard.injected.bdd_blowup"
  + Obs.counter_value snap "guard.injected.sat_exhaust"
  + Obs.counter_value snap "guard.injected.deadline"
  > 0

let blif_of ~name g = Aig.Io.blif_to_string ~model:name g
