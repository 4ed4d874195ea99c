(* Tests for the AIG substrate: construction, simulation, balancing,
   rewriting, sweeping, CNF/CEC, and the BLIF/BENCH round trips. *)

module Tt = Logic.Tt

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Deterministic random circuit from a seed. *)
let random_aig ?(inputs = 6) ?(gates = 40) ?(outputs = 3) seed =
  let st = Random.State.make [| seed; inputs; gates |] in
  let g = Aig.create () in
  let ins = Array.init inputs (fun i -> Aig.add_input ~name:(Printf.sprintf "x%d" i) g) in
  let pool = ref (Array.to_list ins) in
  let pick () =
    let l = List.nth !pool (Random.State.int st (List.length !pool)) in
    if Random.State.bool st then Aig.bnot l else l
  in
  for _ = 1 to gates do
    let a = pick () and b = pick () in
    let n = Aig.band g a b in
    pool := n :: !pool
  done;
  for i = 0 to outputs - 1 do
    Aig.add_output g (Printf.sprintf "y%d" i) (pick ())
  done;
  g

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

let check_equiv_and_report name a b =
  match Aig.Cec.check a b with
  | Aig.Cec.Equivalent -> true
  | Aig.Cec.Counterexample cex ->
    Printf.printf "%s differs on %s\n" name
      (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") cex)));
    false

let test_construction () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  Alcotest.(check int) "and folds const" Aig.const_false (Aig.band g a Aig.const_false);
  Alcotest.(check int) "and folds unit" a (Aig.band g a Aig.const_true);
  Alcotest.(check int) "idempotent" a (Aig.band g a a);
  Alcotest.(check int) "contradiction" Aig.const_false (Aig.band g a (Aig.bnot a));
  let n1 = Aig.band g a b and n2 = Aig.band g b a in
  Alcotest.(check int) "strash commutes" n1 n2;
  Alcotest.(check int) "two inputs" 2 (Aig.num_inputs g);
  Alcotest.(check int) "one and" 1 (Aig.num_ands g)

let test_eval () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  Aig.add_output g "xor" (Aig.bxor g a b);
  let out bits = (Aig.eval g bits).(0) in
  Alcotest.(check bool) "00" false (out [| false; false |]);
  Alcotest.(check bool) "01" true (out [| false; true |]);
  Alcotest.(check bool) "10" true (out [| true; false |]);
  Alcotest.(check bool) "11" false (out [| true; true |])

let test_levels () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let ab = Aig.band g a b in
  let abc = Aig.band g ab c in
  Aig.add_output g "o" abc;
  Alcotest.(check int) "depth 2" 2 (Aig.depth g);
  let lv = Aig.levels g in
  Alcotest.(check int) "input level 0" 0 lv.(Aig.node_of_lit a);
  Alcotest.(check int) "ab level 1" 1 lv.(Aig.node_of_lit ab)

let test_cleanup_drops_dangling () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let _dangling = Aig.band g (Aig.band g a b) (Aig.bnot a) in
  Aig.add_output g "o" (Aig.band g a b);
  let g' = Aig.cleanup g in
  Alcotest.(check int) "one and survives" 1 (Aig.num_ands g');
  Alcotest.(check bool) "equivalent" true (Aig.Cec.equivalent g g')

let prop_tt_of_lit =
  qtest "tt_of_lit matches eval" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:25 seed in
      let _, l = List.hd (Aig.outputs g) in
      let tt = Aig.tt_of_lit g l in
      List.for_all
        (fun m ->
          let bits = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
          let out = (Aig.eval g bits).(0) in
          Tt.get_bit tt m = out)
        (List.init 32 Fun.id))

(* [of_tt] minimizes with [min_sops] at every width; nothing in the
   optimizer asks above 8 variables, so exercise 9 and 10 here. *)
let prop_of_tt_wide =
  qtest ~count:8 "synth: of_tt on wide tables"
    (QCheck.make ~print:string_of_int QCheck.Gen.int)
    (fun seed ->
      List.for_all
        (fun n ->
          let tt = Tt.random (Random.State.make [| seed; n |]) n in
          let g = Aig.create () in
          let ins = Array.init n (fun _ -> Aig.add_input g) in
          let l = Aig.Synth.of_tt g (Aig.Lev.create g) tt ~leaf:(Array.get ins) in
          Tt.equal (Aig.tt_of_lit g l) tt)
        [ 9; 10 ])

let prop_balance_equiv =
  qtest "balance preserves function" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:60 seed in
      let b = Aig.Balance.run g in
      check_equiv_and_report "balance" g b)

let prop_balance_not_deeper =
  qtest "balance never increases depth" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:60 seed in
      Aig.depth (Aig.Balance.run g) <= Aig.depth g)

let prop_rewrite_equiv =
  qtest ~count:30 "rewrite preserves function" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:50 seed in
      let r = Aig.Rewrite.run ~objective:`Delay g in
      check_equiv_and_report "rewrite-delay" g r
      &&
      let r2 = Aig.Rewrite.run ~objective:`Area g in
      check_equiv_and_report "rewrite-area" g r2)

let prop_sweep_equiv =
  qtest ~count:30 "sat_sweep preserves function" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:80 seed in
      let s = Aig.Sweep.sat_sweep g in
      check_equiv_and_report "sat_sweep" g s
      && Aig.num_reachable_ands s <= Aig.num_reachable_ands g)

let prop_resub_equiv =
  qtest ~count:30 "resub preserves function" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:60 seed in
      check_equiv_and_report "resub" g (Aig.Resub.run g))

let test_resub_finds_shortcut () =
  (* y = (((a & b) & c) & b): the chain can be re-expressed from
     shallower nodes; resub must not break it and should not deepen. *)
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g and c = Aig.add_input g in
  let ab = Aig.band g a b in
  let abc = Aig.band g ab c in
  let y = Aig.band g abc b in
  Aig.add_output g "y" y;
  let r = Aig.Resub.run g in
  Alcotest.(check bool) "equivalent" true (Aig.Cec.equivalent g r);
  Alcotest.(check bool) "no deeper" true (Aig.depth r <= Aig.depth g)

let test_cec_detects_difference () =
  let mk flip =
    let g = Aig.create () in
    let a = Aig.add_input g and b = Aig.add_input g in
    let o = if flip then Aig.bor g a b else Aig.band g a b in
    Aig.add_output g "o" o;
    g
  in
  Alcotest.(check bool) "and != or" false
    (Aig.Cec.equivalent (mk false) (mk true));
  Alcotest.(check bool) "and == and" true
    (Aig.Cec.equivalent (mk false) (mk false))

let prop_blif_roundtrip =
  qtest ~count:30 "blif write/read roundtrip" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let text = Aig.Io.blif_to_string g in
      let g' = Aig.Io.read_blif text in
      check_equiv_and_report "blif" g g')

let prop_bench_roundtrip =
  qtest ~count:30 "bench write/read roundtrip" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let buf = Buffer.create 512 in
      let ppf = Format.formatter_of_buffer buf in
      Aig.Io.write_bench ppf g;
      Format.pp_print_flush ppf ();
      let g' = Aig.Io.read_bench (Buffer.contents buf) in
      check_equiv_and_report "bench" g g')

(* Two gates feeding each other: z = y & a, y = a & z. *)
let test_blif_loop () =
  Alcotest.check_raises "loop fails instead of overflowing the stack"
    (Failure "blif: combinational loop through z") (fun () ->
      ignore
        (Aig.Io.read_blif
           ".model loop\n.inputs a\n.outputs z\n.names a z y\n11 1\n\
            .names y a z\n11 1\n.end\n"))

(* Tabs separate tokens like spaces: a two-input AND read from a
   tab-separated table. *)
let test_blif_tabs () =
  let g =
    Aig.Io.read_blif
      ".model t\n.inputs a\tb\n.outputs y\n.names\ta\tb\ty\n11\t1\n.end\n"
  in
  Alcotest.(check int) "two inputs" 2 (Aig.num_inputs g);
  Alcotest.(check (list bool))
    "y = a & b" [ false; false; false; true ]
    (List.map
       (fun (a, b) -> (Aig.eval g [| a; b |]).(0))
       [ (false, false); (true, false); (false, true); (true, true) ])

(* Rows of a two-input table that must fail naming their signal rather
   than be misread: a short row (missing inputs as don't-cares), a long
   one, and a non-0/1 output (the row dropped). *)
let test_blif_bad_rows () =
  List.iter
    (fun (row, msg) ->
      Alcotest.check_raises row (Failure msg) (fun () ->
          ignore
            (Aig.Io.read_blif
               (".model t\n.inputs a b\n.outputs y\n.names a b y\n" ^ row
              ^ "\n.end\n"))))
    [
      ("1 1", "blif: row \"1 1\" of y has 1 input column(s), expected 2");
      ("111 1", "blif: row \"111 1\" of y has 3 input column(s), expected 2");
      ("11 x", "blif: row \"11 x\" of y has output \"x\", expected 0 or 1");
    ]

let test_bench_loop () =
  Alcotest.check_raises "loop fails instead of overflowing the stack"
    (Failure "bench: combinational loop through z") (fun () ->
      ignore
        (Aig.Io.read_bench
           "INPUT(a)\nOUTPUT(z)\ny = AND(a, z)\nz = AND(y, a)\n"))

let prop_cut_functions =
  qtest ~count:25 "cut functions match node function" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:40 seed in
      let cuts = Aig.Cuts.enumerate g ~k:4 ~per_node:5 in
      let ok = ref true in
      for id = 1 to Aig.num_nodes g - 1 do
        if Aig.is_and g id then begin
          let node_tt = Aig.tt_of_lit g (Aig.lit_of_node id false) in
          List.iter
            (fun (c : Aig.Cuts.cut) ->
              (* Substitute each leaf's global function into the cut tt and
                 compare against the node's global function. *)
              let global = ref (Tt.const_false 6) in
              let n_leaves = Array.length c.leaves in
              let leaf_tts =
                Array.map (fun lid -> Aig.tt_of_lit g (Aig.lit_of_node lid false)) c.leaves
              in
              let expand m =
                (* Evaluate cut tt on the leaf functions at input minterm m *)
                let idx = ref 0 in
                for i = 0 to n_leaves - 1 do
                  if Tt.get_bit leaf_tts.(i) m then idx := !idx lor (1 lsl i)
                done;
                Tt.get_bit c.tt !idx
              in
              global := Tt.of_fun 6 expand;
              if not (Tt.equal !global node_tt) then ok := false)
            cuts.(id)
        end
      done;
      !ok)

let prop_support =
  qtest "support_of_lit sound" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:30 seed in
      let _, l = List.hd (Aig.outputs g) in
      let sup = Aig.support_of_lit g l in
      let tt = Aig.tt_of_lit g l in
      (* Structural support includes functional support. *)
      List.for_all (fun v -> List.mem v sup) (Tt.support tt))

(* Minimal substring check used by the Verilog test. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let prop_aag_roundtrip =
  qtest ~count:30 "aiger ascii roundtrip" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let g' = Aig.Aiger.read_aag (Aig.Aiger.aag_to_string g) in
      check_equiv_and_report "aag" g g')

let prop_aig_binary_roundtrip =
  qtest ~count:30 "aiger binary roundtrip" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let buf = Buffer.create 512 in
      Aig.Aiger.write_aig_binary buf g;
      let g' = Aig.Aiger.read_aig_binary (Buffer.contents buf) in
      check_equiv_and_report "aig-binary" g g')

let test_verilog_output () =
  let g = Aig.create () in
  let a = Aig.add_input ~name:"a" g and b = Aig.add_input ~name:"b" g in
  Aig.add_output g "y" (Aig.band g a (Aig.bnot b));
  let text = Aig.Verilog.to_string ~module_name:"t" g in
  Alcotest.(check bool) "module header" true
    (String.length text > 0
     && contains text "module t"
     && contains text "assign"
     && contains text "endmodule")

let () =
  Alcotest.run "aig"
    [
      ( "graph",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "cleanup" `Quick test_cleanup_drops_dangling;
          prop_tt_of_lit;
          prop_support;
        ] );
      ( "passes",
        [
          prop_balance_equiv;
          prop_balance_not_deeper;
          prop_rewrite_equiv;
          prop_sweep_equiv;
          prop_cut_functions;
          prop_of_tt_wide;
          prop_resub_equiv;
          Alcotest.test_case "resub shortcut" `Quick test_resub_finds_shortcut;
        ] );
      ( "cec-io",
        [
          Alcotest.test_case "cec detects difference" `Quick test_cec_detects_difference;
          prop_blif_roundtrip;
          prop_bench_roundtrip;
          Alcotest.test_case "blif combinational loop" `Quick test_blif_loop;
          Alcotest.test_case "blif tab-separated tokens" `Quick test_blif_tabs;
          Alcotest.test_case "blif malformed rows" `Quick test_blif_bad_rows;
          Alcotest.test_case "bench combinational loop" `Quick test_bench_loop;
          prop_aag_roundtrip;
          prop_aig_binary_roundtrip;
          Alcotest.test_case "verilog" `Quick test_verilog_output;
        ] );
    ]
