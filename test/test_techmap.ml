(* Tests for the technology mapper, the cell library, and the power
   model. *)

module Tt = Logic.Tt

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

let random_aig ?(inputs = 6) ?(gates = 50) ?(outputs = 3) seed =
  let st = Random.State.make [| seed; inputs; gates |] in
  let g = Aig.create () in
  let ins = Array.init inputs (fun _ -> Aig.add_input g) in
  let pool = ref (Array.to_list ins) in
  let pick () =
    let l = List.nth !pool (Random.State.int st (List.length !pool)) in
    if Random.State.bool st then Aig.bnot l else l
  in
  for _ = 1 to gates do
    pool := Aig.band g (pick ()) (pick ()) :: !pool
  done;
  for i = 0 to outputs - 1 do
    Aig.add_output g (Printf.sprintf "y%d" i) (pick ())
  done;
  g

(* --- library ------------------------------------------------------------ *)

let test_library_sanity () =
  List.iter
    (fun (c : Techmap.Library.cell) ->
      Alcotest.(check int)
        (c.Techmap.Library.name ^ " arity matches tt")
        c.Techmap.Library.arity
        (Tt.num_vars c.Techmap.Library.func);
      Alcotest.(check bool)
        (c.Techmap.Library.name ^ " positive costs")
        true
        (c.Techmap.Library.area > 0.0 && c.Techmap.Library.intrinsic > 0.0))
    Techmap.Library.cells;
  let inv = Techmap.Library.find "INV" in
  Alcotest.(check bool) "INV inverts" true
    (Tt.equal inv.Techmap.Library.func (Tt.lnot (Tt.var 1 0)))

let test_library_unique_names () =
  let names = List.map (fun c -> c.Techmap.Library.name) Techmap.Library.cells in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- mapper -------------------------------------------------------------- *)

let prop_mapping_correct =
  qtest ~count:50 "mapped netlist simulates like the AIG" gen_seed (fun seed ->
      let g = random_aig seed in
      let n = Techmap.Mapper.map g in
      Techmap.Mapper.check n)

let prop_mapping_covers =
  qtest "every PO signal produced or primary" gen_seed (fun seed ->
      let g = random_aig seed in
      let n = Techmap.Mapper.map g in
      let produced = Hashtbl.create 64 in
      List.iter
        (fun (gate : Techmap.Mapper.gate) ->
          Hashtbl.replace produced
            (gate.Techmap.Mapper.out.Techmap.Mapper.node,
             gate.Techmap.Mapper.out.Techmap.Mapper.inverted)
            ())
        n.Techmap.Mapper.gates;
      List.for_all
        (fun ((_, s) : string * Techmap.Mapper.signal) ->
          Hashtbl.mem produced (s.Techmap.Mapper.node, s.Techmap.Mapper.inverted)
          || s.Techmap.Mapper.node = 0
          || (Aig.is_input g s.Techmap.Mapper.node && not s.Techmap.Mapper.inverted))
        n.Techmap.Mapper.primary_outputs)

let prop_metrics_positive =
  qtest "area/delay positive on nontrivial circuits" gen_seed (fun seed ->
      let g = random_aig seed in
      let n = Techmap.Mapper.map g in
      Techmap.Mapper.num_gates n = 0
      || (Techmap.Mapper.area n > 0.0 && Techmap.Mapper.delay n > 0.0))

let test_constant_output () =
  let g = Aig.create () in
  let _ = Aig.add_input g in
  Aig.add_output g "zero" Aig.const_false;
  Aig.add_output g "one" Aig.const_true;
  let n = Techmap.Mapper.map g in
  Alcotest.(check bool) "maps" true (Techmap.Mapper.check n)

let test_delay_monotone_in_depth () =
  (* A deeper implementation of the same function should not map to a
     faster netlist (same structure family). *)
  let rca = Circuits.Adders.ripple_carry 8 in
  let cla = Circuits.Adders.carry_lookahead 8 in
  let d_rca = Techmap.Mapper.delay (Techmap.Mapper.map rca) in
  let d_cla = Techmap.Mapper.delay (Techmap.Mapper.map cla) in
  Alcotest.(check bool) "cla maps faster" true (d_cla < d_rca)

(* --- mapped STA ----------------------------------------------------------- *)

(* Exact float equality, printed in full so a last-bit difference
   shows. *)
let exact = Alcotest.testable (fun ppf -> Format.fprintf ppf "%.17g") Float.equal

(* STA reads the mapper's arrival pass, so its critical-path delay is
   the very float every table reports. A separate pass with another
   association of the same sum differed in the last bits on each cell
   after ripple8. *)
let test_sta_consistent_with_delay () =
  List.iter
    (fun (name, g) ->
      let n = Techmap.Mapper.map g in
      let r = Techmap.Sta.analyze n in
      Alcotest.check exact
        ("sta delay = mapper delay, " ^ name)
        (Techmap.Mapper.delay n) r.Techmap.Sta.delay;
      let path = Techmap.Sta.critical_path n r in
      Alcotest.(check bool) "path nonempty" true (path <> []);
      (* Slack on the critical path's endpoint is ~0. *)
      let last = List.nth path (List.length path - 1) in
      let s =
        Hashtbl.find r.Techmap.Sta.slack
          (last.Techmap.Mapper.out.Techmap.Mapper.node,
           last.Techmap.Mapper.out.Techmap.Mapper.inverted)
      in
      Alcotest.(check bool) "endpoint slack zero" true (abs_float s < 1e-6))
    [
      ("ripple8", Circuits.Adders.ripple_carry 8);
      ("C880 dc", Baselines.dc_like (Circuits.Suite.build "C880"));
      ( "sparc_exu_ecl_flat dc",
        Baselines.dc_like (Circuits.Suite.build "sparc_exu_ecl_flat") );
      ("lsu_excpctl_flat", Circuits.Suite.build "lsu_excpctl_flat");
      ("sparc_tlu_intctl_flat", Circuits.Suite.build "sparc_tlu_intctl_flat");
    ]

let test_sta_nonnegative_slack () =
  let g = Circuits.Suite.build "C432" in
  let n = Techmap.Mapper.map g in
  let r = Techmap.Sta.analyze n in
  Hashtbl.iter
    (fun _ s ->
      Alcotest.(check bool) "slack >= 0" true (s >= -1e-6))
    r.Techmap.Sta.slack

let test_verilog_netlist () =
  let g = Circuits.Adders.ripple_carry 2 in
  let n = Techmap.Mapper.map g in
  let text = Techmap.Verilog.to_string ~module_name:"adder2" n in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "has top module" true (contains text "module adder2");
  Alcotest.(check bool) "instantiates cells" true (contains text " u0 (");
  Alcotest.(check bool) "ends" true (contains text "endmodule")

(* --- power ---------------------------------------------------------------- *)

let test_power_positive_and_scales () =
  let small = Circuits.Adders.ripple_carry 4 in
  let big = Circuits.Adders.ripple_carry 16 in
  let p_small = Techmap.Power.dynamic_mw (Techmap.Mapper.map small) in
  let p_big = Techmap.Power.dynamic_mw (Techmap.Mapper.map big) in
  Alcotest.(check bool) "positive" true (p_small > 0.0);
  Alcotest.(check bool) "scales with size" true (p_big > p_small)

let test_power_deterministic () =
  let g = Circuits.Suite.build "C432" in
  let n = Techmap.Mapper.map g in
  let p1 = Techmap.Power.dynamic_mw n and p2 = Techmap.Power.dynamic_mw n in
  Alcotest.(check (float 1e-12)) "deterministic" p1 p2

let () =
  Alcotest.run "techmap"
    [
      ( "library",
        [
          Alcotest.test_case "sanity" `Quick test_library_sanity;
          Alcotest.test_case "unique names" `Quick test_library_unique_names;
        ] );
      ( "mapper",
        [
          prop_mapping_correct;
          prop_mapping_covers;
          prop_metrics_positive;
          Alcotest.test_case "constant outputs" `Quick test_constant_output;
          Alcotest.test_case "delay vs depth" `Quick test_delay_monotone_in_depth;
        ] );
      ( "sta",
        [
          Alcotest.test_case "consistent with delay" `Quick test_sta_consistent_with_delay;
          Alcotest.test_case "nonnegative slack" `Quick test_sta_nonnegative_slack;
          Alcotest.test_case "verilog netlist" `Quick test_verilog_netlist;
        ] );
      ( "power",
        [
          Alcotest.test_case "positive and scaling" `Quick test_power_positive_and_scales;
          Alcotest.test_case "deterministic" `Quick test_power_deterministic;
        ] );
    ]
