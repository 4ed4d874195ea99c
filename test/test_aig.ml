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
      && Aig.num_reachable_ands s <= Aig.num_reachable_ands g
      && Aig.depth s <= Aig.depth g)

(* The later of two equal nodes is the shallower one: the sweep must
   hand its image to the earlier node's readers, not keep the deep
   chain because it was built first. *)
let test_sweep_takes_later_shallower () =
  let g = Aig.create () in
  let a = Aig.add_input g and b = Aig.add_input g in
  let c = Aig.add_input g and d = Aig.add_input g in
  let ab = Aig.band g a b in
  let chain = Aig.band g (Aig.band g ab c) d in
  let twin = Aig.band g ab (Aig.band g c d) in
  Aig.add_output g "chain" chain;
  Aig.add_output g "twin" twin;
  let s = Aig.Sweep.sat_sweep g in
  Alcotest.(check bool) "equivalent" true (Aig.Cec.equivalent g s);
  let lv = Aig.levels s in
  Alcotest.(check (list int)) "both outputs at level 2" [ 2; 2 ]
    (List.map (fun (_, l) -> lv.(Aig.node_of_lit l)) (Aig.outputs s))

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

(* [Cuts]' cone walk as it was before stamp arrays: a Hashtbl of leaf
   positions and a Hashtbl memo, from the root down to the leaves. The
   oracle for every enumerated cut's table. *)
let reference_cut_function g l leaves =
  let n = Array.length leaves in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) leaves;
  let memo = Hashtbl.create 32 in
  let rec go l =
    let id = Aig.node_of_lit l in
    let base =
      match Hashtbl.find_opt pos id with
      | Some i -> Tt.var n i
      | None -> (
        match Hashtbl.find_opt memo id with
        | Some t -> t
        | None ->
          let t =
            if id = 0 then Tt.const_false n
            else
              let f0, f1 = Aig.fanins g id in
              Tt.land_ (go f0) (go f1)
          in
          Hashtbl.add memo id t;
          t)
    in
    if Aig.is_complemented l then Tt.lnot base else base
  in
  go l

(* Every cut's table, at k = 4, 6 and 8: equal to the reference walk over
   the same leaves, and consistent with the node's global function.
   Tables are computed on first read, so the kept cuts of all roots are
   read in a shuffled order after enumeration: consecutive reads belong
   to unrelated roots, and a walk that trusted a stale stamp or memo
   entry would return the previous root's table. *)
let prop_cut_functions =
  qtest ~count:25 "cut functions match node function" gen_seed (fun seed ->
      List.for_all
        (fun (k, inputs) ->
          let g = random_aig ~inputs ~gates:60 seed in
          let cuts = Aig.Cuts.enumerate g ~k ~per_node:5 in
          let reads =
            List.concat
              (List.init (Aig.num_nodes g) (fun id ->
                   if Aig.is_and g id then List.map (fun c -> (id, c)) cuts.(id)
                   else []))
            |> Array.of_list
          in
          let st = Random.State.make [| seed; k |] in
          for i = Array.length reads - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = reads.(i) in
            reads.(i) <- reads.(j);
            reads.(j) <- t
          done;
          Array.for_all
            (fun (id, c) ->
              let root = Aig.lit_of_node id false in
              let leaves = Aig.Cuts.leaves c in
              let tt = Aig.Cuts.tt c in
              (* Substitute each leaf's global function into the cut tt
                 and compare against the node's global function. *)
              let leaf_tts =
                Array.map
                  (fun lid -> Aig.tt_of_lit g (Aig.lit_of_node lid false))
                  leaves
              in
              let expand m =
                let idx = ref 0 in
                Array.iteri
                  (fun i t -> if Tt.get_bit t m then idx := !idx lor (1 lsl i))
                  leaf_tts;
                Tt.get_bit tt !idx
              in
              Tt.equal tt (reference_cut_function g root leaves)
              && Tt.equal (Tt.of_fun inputs expand) (Aig.tt_of_lit g root))
            reads)
        [ (4, 6); (6, 8); (8, 10) ])

(* [Synth.divisor]'s oracle: the divisor choice before it moved to
   arrays, on an unseeded table so that [OCAMLRUNPARAM=R] cannot reorder
   it. The first literal in [Hashtbl.iter] order with the largest count
   >= 2 wins. *)
let reference_divisor (sop : Logic.Sop.t) =
  let counts = Hashtbl.create ~random:false 16 in
  List.iter
    (fun c ->
      List.iter
        (fun litp ->
          let n = try Hashtbl.find counts litp with Not_found -> 0 in
          Hashtbl.replace counts litp (n + 1))
        (Logic.Cube.literals c))
    sop.cubes;
  let best = ref None in
  Hashtbl.iter
    (fun litp n ->
      match !best with
      | Some (_, bn) when bn >= n -> ()
      | _ -> if n >= 2 then best := Some (litp, n))
    counts;
  Option.map fst !best

(* Quick-factoring as it was, on [reference_divisor]: the oracle for the
   nodes [Synth] builds and the order it calls [leaf] in. *)
let rec reference_factor g lev (sop : Logic.Sop.t) ~leaf =
  let cube_lits c =
    List.map
      (fun (i, b) -> if b then leaf i else Aig.bnot (leaf i))
      (Logic.Cube.literals c)
  in
  match sop.cubes with
  | [] -> Aig.const_false
  | [ c ] -> Aig.Synth.and_tree g lev (cube_lits c)
  | cubes -> (
    match reference_divisor sop with
    | None ->
      Aig.Synth.or_tree g lev
        (List.map (fun c -> Aig.Synth.and_tree g lev (cube_lits c)) cubes)
    | Some (i, b) -> (
      let quotient, remainder =
        List.partition_map
          (fun c ->
            if List.mem (i, b) (Logic.Cube.literals c) then
              Left
                { Logic.Cube.mask = c.Logic.Cube.mask land lnot (1 lsl i);
                  bits = c.Logic.Cube.bits land lnot (1 lsl i) }
            else Right c)
          cubes
      in
      let q = reference_factor g lev (Logic.Sop.make sop.n quotient) ~leaf in
      let div_lit = if b then leaf i else Aig.bnot (leaf i) in
      let l = Aig.band g div_lit q in
      match remainder with
      | [] -> l
      | _ ->
        Aig.bor g l (reference_factor g lev (Logic.Sop.make sop.n remainder) ~leaf)))

let reference_of_tt g lev tt ~leaf =
  if Tt.is_const_false tt then Aig.const_false
  else if Tt.is_const_true tt then Aig.const_true
  else begin
    let on, off = Logic.Minimize.min_sops tt in
    let pos = reference_factor g lev on ~leaf in
    let neg = Aig.bnot (reference_factor g lev off ~leaf) in
    let lp = Aig.Lev.level lev pos and ln = Aig.Lev.level lev neg in
    if lp < ln then pos else if ln < lp then neg else pos
  end

(* A random cover: 1-30 variables, 1-40 cubes, each variable bound with a
   per-cover probability, so that wide covers exceed 32 distinct
   literals (the reference table's resize) and narrow ones tie often. *)
let random_cover seed =
  let st = Random.State.make [| seed; 21 |] in
  let n = 1 + Random.State.int st 30 and m = 1 + Random.State.int st 40 in
  let density = 1 + Random.State.int st 9 in
  let cube () =
    let mask = ref 0 and bits = ref 0 in
    for i = 0 to n - 1 do
      if Random.State.int st 10 < density then begin
        mask := !mask lor (1 lsl i);
        if Random.State.bool st then bits := !bits lor (1 lsl i)
      end
    done;
    { Logic.Cube.mask = !mask; bits = !bits }
  in
  Logic.Sop.make n (List.init m (fun _ -> cube ()))

let prop_divisor =
  qtest ~count:500 "synth: divisor matches the hashtable order" gen_seed
    (fun seed ->
      let sop = random_cover seed in
      Aig.Synth.divisor sop = reference_divisor sop)

(* Builds with [build] into a fresh graph over [n] inputs, recording
   every [leaf] call: the order reaches node ids when a caller's [leaf]
   creates nodes, as [Lookahead.Reconstruct]'s does. *)
let record_leaves n build =
  let g = Aig.create () in
  let ins = Array.init n (fun _ -> Aig.add_input g) in
  let calls = ref [] in
  let leaf i =
    calls := i :: !calls;
    ins.(i)
  in
  let l = build g (Aig.Lev.create g) ~leaf in
  (List.rev !calls, l, Aig.num_nodes g)

let prop_leaf_order =
  qtest ~count:200 "synth: leaf calls and nodes match the reference" gen_seed
    (fun seed ->
      let sop = random_cover seed in
      let tt = Tt.random (Random.State.make [| seed; 8 |]) (1 + (seed mod 8)) in
      record_leaves sop.n (fun g lev ~leaf -> Aig.Synth.of_sop g lev sop ~leaf)
      = record_leaves sop.n (fun g lev ~leaf -> reference_factor g lev sop ~leaf)
      && record_leaves (Tt.num_vars tt) (fun g lev ~leaf ->
             Aig.Synth.of_tt g lev tt ~leaf)
         = record_leaves (Tt.num_vars tt) (fun g lev ~leaf ->
               reference_of_tt g lev tt ~leaf))

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
          Alcotest.test_case "sweep takes the later shallower twin" `Quick
            test_sweep_takes_later_shallower;
          prop_cut_functions;
          prop_of_tt_wide;
          prop_divisor;
          prop_leaf_order;
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
