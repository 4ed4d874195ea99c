(* Tests for floating-mode delays and the SPCF engines. *)

module Tt = Logic.Tt

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

let random_aig ?(inputs = 6) ?(gates = 40) ?(outputs = 2) seed =
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

(* --- floating-mode delays ----------------------------------------------- *)

let test_floating_controlling () =
  (* o = a & chain: when a=0, the AND is controlled and answers fast. *)
  let g = Aig.create () in
  let a = Aig.add_input g in
  let xs = Array.init 4 (fun _ -> Aig.add_input g) in
  let chain = Array.fold_left (fun acc x -> Aig.band g acc x) Aig.const_true xs in
  let o = Aig.band g a chain in
  Aig.add_output g "o" o;
  let oid = Aig.node_of_lit o in
  let all_true = Array.make 5 true in
  let delays = Timing.Spcf.floating_delays g all_true in
  let full = delays.(oid) in
  let a_zero = Array.copy all_true in
  a_zero.(0) <- false;
  let delays0 = Timing.Spcf.floating_delays g a_zero in
  Alcotest.(check int) "controlled output is fast" 1 delays0.(oid);
  Alcotest.(check bool) "sensitized path is slow" true (full > 1)

let prop_floating_bounded_by_levels =
  qtest "floating delay <= topological level" gen_seed (fun seed ->
      let g = random_aig seed in
      let lv = Aig.levels g in
      List.for_all
        (fun m ->
          let bits = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
          let d = Timing.Spcf.floating_delays g bits in
          List.for_all
            (fun id -> d.(id) <= lv.(id))
            (List.init (Aig.num_nodes g) Fun.id))
        [ 0; 21; 42; 63 ])

let test_exact_spcf_adder () =
  (* For a ripple-carry adder, only carry-propagating minterms exercise
     the full-depth paths. *)
  let g = Circuits.Adders.ripple_carry 4 in
  let outs = Aig.outputs g in
  let cout_index =
    let rec find i = function
      | [] -> failwith "no cout"
      | (name, _) :: rest -> if name = "cout" then i else find (i + 1) rest
    in
    find 0 outs
  in
  let lv = Aig.levels g in
  let _, ol = List.nth outs cout_index in
  let delta = lv.(Aig.node_of_lit ol) in
  let spcf = Timing.Spcf.exact g ~out:cout_index ~delta in
  let count = Tt.count_ones spcf in
  Alcotest.(check bool) "spcf nonempty" true (count > 0);
  Alcotest.(check bool) "spcf is a strict subset" true (count < Tt.size spcf)

let prop_exact_spcf_monotone =
  qtest ~count:25 "exact SPCF shrinks as delta grows" gen_seed (fun seed ->
      let g = random_aig ~inputs:6 ~gates:30 ~outputs:1 seed in
      let lv = Aig.levels g in
      let _, ol = List.hd (Aig.outputs g) in
      let d = lv.(Aig.node_of_lit ol) in
      d < 2
      ||
      let s1 = Timing.Spcf.exact g ~out:0 ~delta:(d - 1) in
      let s2 = Timing.Spcf.exact g ~out:0 ~delta:d in
      (* s2 subset of s1 *)
      Tt.is_const_false (Tt.land_ s2 (Tt.lnot s1)))

let prop_exact_spcf_zero_delta =
  qtest ~count:15 "exact SPCF at delta 0 is the universe" gen_seed
    (fun seed ->
      let g = random_aig ~inputs:5 ~gates:20 ~outputs:1 seed in
      Tt.is_const_true (Timing.Spcf.exact g ~out:0 ~delta:0))

(* --- approximate SPCF ---------------------------------------------------- *)

let test_approx_spcf_sensible () =
  let g = Aig.Balance.run (Circuits.Adders.ripple_carry 4) in
  let net = Network.of_aig ~k:6 g in
  let levels = Network.Levels.compute net in
  let man = Bdd.create () in
  let globals = Network.Globals.of_net man net in
  let o =
    List.find
      (fun (o : Network.output) -> o.Network.name = "cout")
      (Network.outputs net)
  in
  let delta = levels.(o.Network.node) in
  let spcf = Timing.Spcf.approx man net globals ~levels ~out:o ~delta () in
  Alcotest.(check bool) "nonempty" false (Bdd.is_false man spcf);
  (* At an impossible threshold the SPCF must be empty. *)
  let spcf_hi =
    Timing.Spcf.approx man net globals ~levels ~out:o ~delta:(delta * 10) ()
  in
  Alcotest.(check bool) "empty above depth" true (Bdd.is_false man spcf_hi)

let test_boolean_difference () =
  (* y = a xor b : flipping either input always flips y. *)
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let x = Network.add_node net [| a; b |] (Tt.lxor_ (Tt.var 2 0) (Tt.var 2 1)) in
  let buf = Network.add_node net [| x |] (Tt.var 1 0) in
  Network.add_output net "y" buf;
  let man = Bdd.create () in
  let globals = Network.Globals.of_net man net in
  let o = List.hd (Network.outputs net) in
  let d = Timing.Spcf.boolean_difference man net globals ~wrt:x ~out:o in
  Alcotest.(check bool) "xor depends everywhere" true (Bdd.is_true man d);
  (* Output does not depend on an unrelated node. *)
  let unrelated = Network.add_node net [| a |] (Tt.var 1 0) in
  let d2 = Timing.Spcf.boolean_difference man net globals ~wrt:unrelated ~out:o in
  Alcotest.(check bool) "no dependence" true (Bdd.is_false man d2)

let () =
  Alcotest.run "timing"
    [
      ( "floating",
        [
          Alcotest.test_case "controlling value" `Quick test_floating_controlling;
          prop_floating_bounded_by_levels;
          Alcotest.test_case "exact SPCF on adder" `Quick test_exact_spcf_adder;
          prop_exact_spcf_monotone;
          prop_exact_spcf_zero_delta;
        ] );
      ( "spcf",
        [
          Alcotest.test_case "approx sensible" `Quick test_approx_spcf_sensible;
          Alcotest.test_case "boolean difference" `Quick test_boolean_difference;
        ] );
    ]
