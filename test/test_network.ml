(* Tests for the technology-independent network: clustering, level
   quantification, globals, and AIG round trips. *)

module Tt = Logic.Tt

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

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
    pool := Aig.band g (pick ()) (pick ()) :: !pool
  done;
  for i = 0 to outputs - 1 do
    Aig.add_output g (Printf.sprintf "y%d" i) (pick ())
  done;
  g

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

(* --- structure ---------------------------------------------------------- *)

let test_build_eval () =
  let net = Network.create () in
  let a = Network.add_input ~name:"a" net in
  let b = Network.add_input ~name:"b" net in
  let c = Network.add_input ~name:"c" net in
  (* n = (a & b) | c as a single 3-input node *)
  let f =
    Tt.lor_ (Tt.land_ (Tt.var 3 0) (Tt.var 3 1)) (Tt.var 3 2)
  in
  let n = Network.add_node net [| a; b; c |] f in
  Network.add_output net "o" n;
  Network.add_output net "no" ~negated:true n;
  let out = Network.eval net [| true; true; false |] in
  Alcotest.(check bool) "o" true out.(0);
  Alcotest.(check bool) "no" false out.(1);
  let out = Network.eval net [| true; false; false |] in
  Alcotest.(check bool) "o2" false out.(0)

let prop_of_aig_direct =
  qtest "of_aig_direct preserves function" gen_seed (fun seed ->
      let g = random_aig seed in
      let net = Network.of_aig_direct g in
      List.for_all
        (fun m ->
          let bits = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
          Network.eval net bits = Aig.eval g bits)
        (List.init 64 Fun.id))

let prop_of_aig_clustered =
  qtest "of_aig (renode) preserves function" gen_seed (fun seed ->
      let g = random_aig seed in
      let net = Network.of_aig ~k:5 g in
      List.for_all
        (fun m ->
          let bits = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
          Network.eval net bits = Aig.eval g bits)
        (List.init 64 Fun.id))

let prop_roundtrip =
  qtest "of_aig |> to_aig is equivalent" gen_seed (fun seed ->
      let g = random_aig seed in
      let g' = Network.to_aig (Network.of_aig ~k:6 g) in
      Aig.Cec.equivalent g g')

let prop_cluster_bound =
  qtest "renode respects the fanin bound" gen_seed (fun seed ->
      let g = random_aig ~gates:60 seed in
      let k = 4 in
      let net = Network.of_aig ~k g in
      List.for_all
        (fun id ->
          Network.is_input net id
          || Array.length (Network.node net id).Network.fanins <= k)
        (Network.topo_order net))

(* --- levels (Sec. 3.1 quantification) ----------------------------------- *)

let test_tree_depth () =
  Alcotest.(check int) "empty" 0 (Network.Levels.tree_depth []);
  Alcotest.(check int) "singleton" 3 (Network.Levels.tree_depth [ 3 ]);
  Alcotest.(check int) "four zeros" 2 (Network.Levels.tree_depth [ 0; 0; 0; 0 ]);
  (* Huffman order: merging the two shallow leaves first wins. *)
  Alcotest.(check int) "skewed" 4 (Network.Levels.tree_depth [ 3; 0; 0 ]);
  Alcotest.(check int) "ripple chain" 4 (Network.Levels.tree_depth [ 0; 1; 2; 3 ])

let test_node_level_example () =
  (* The paper's carry node: c = g + p*cin with level(g)=level(p)=1 and a
     deep carry input. *)
  let net = Network.create () in
  let a = Network.add_input net and b = Network.add_input net in
  let deep = Network.add_input net in
  ignore (a, b);
  let gt = Tt.land_ (Tt.var 2 0) (Tt.var 2 1) in
  let pt = Tt.lor_ (Tt.var 2 0) (Tt.var 2 1) in
  let gn = Network.add_node net [| a; b |] gt in
  let pn = Network.add_node net [| a; b |] pt in
  let carry =
    (* c = g + p * cin over fanins [g; p; cin] *)
    Tt.lor_ (Tt.var 3 0) (Tt.land_ (Tt.var 3 1) (Tt.var 3 2))
  in
  let cn = Network.add_node net [| gn; pn; deep |] carry in
  Network.add_output net "c" cn;
  let levels = Network.Levels.compute net in
  Alcotest.(check int) "g level" 1 levels.(gn);
  Alcotest.(check int) "p level" 1 levels.(pn);
  (* deep input is level 0 here, so c = or(g, and(p, cin)) is 2 deep with
     the or absorbing the shallow g first. *)
  Alcotest.(check int) "carry level" 3 levels.(cn);
  let crit = Network.Levels.critical_inputs net ~levels cn in
  Alcotest.(check (list int)) "critical inputs are g and p" [ 0; 1 ] crit

let prop_levels_bound_aig_depth =
  qtest "direct-network levels match AIG depth growth" gen_seed (fun seed ->
      let g = random_aig seed in
      let net = Network.of_aig_direct g in
      (* With one AND per node, the network level of each node is at most
         the AIG level (min-SOP may see through to a cheaper polarity). *)
      let levels = Network.Levels.compute net in
      let depth_net =
        List.fold_left
          (fun acc (o : Network.output) -> max acc levels.(o.Network.node))
          0 (Network.outputs net)
      in
      depth_net <= Aig.depth g)

(* --- globals ------------------------------------------------------------ *)

let prop_globals =
  qtest "global BDDs match simulation" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:25 seed in
      let net = Network.of_aig ~k:4 g in
      let man = Bdd.create () in
      let globals = Network.Globals.of_net man net in
      let outs = Network.outputs net in
      List.for_all
        (fun m ->
          let bits = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
          let values = Network.eval_nodes net bits in
          List.for_all
            (fun (o : Network.output) ->
              let bdd = globals.(o.Network.node) in
              let restricted =
                List.fold_left
                  (fun acc i -> Bdd.restrict man acc i bits.(i))
                  bdd
                  (List.init 5 Fun.id)
              in
              Bdd.is_true man restricted = values.(o.Network.node))
            outs)
        (List.init 32 Fun.id))

let prop_cube_image =
  qtest ~count:25 "cube images are exact" gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:20 seed in
      let net = Network.of_aig ~k:4 g in
      let man = Bdd.create () in
      let globals = Network.Globals.of_net man net in
      (* For every internal node and a sample cube, the image must contain
         exactly the inputs driving the fanins into the cube. *)
      List.for_all
        (fun id ->
          Network.is_input net id
          ||
          let nd = Network.node net id in
          let k = Array.length nd.Network.fanins in
          k = 0
          ||
          let cube = Logic.Cube.of_literals [ (0, true) ] in
          let image = Network.Globals.cube_image man globals net id cube in
          List.for_all
            (fun m ->
              let bits = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
              let values = Network.eval_nodes net bits in
              let inside = values.(nd.Network.fanins.(0)) in
              let in_image =
                Bdd.is_true man
                  (List.fold_left
                     (fun acc i -> Bdd.restrict man acc i bits.(i))
                     image
                     (List.init 5 Fun.id))
              in
              in_image = inside)
            (List.init 32 Fun.id))
        (Network.topo_order net))

(* --- incremental analyses ----------------------------------------------- *)

(* Random truth table of arity [k]. *)
let random_tt st k =
  let tt = ref (Tt.const_false k) in
  for m = 0 to (1 lsl k) - 1 do
    if Random.State.bool st then tt := Tt.lor_ !tt (Tt.of_minterms k [ m ])
  done;
  !tt

(* One random edit session: bursts of [set_func] edits (reported through
   [invalidate]) and [set_output] rewires (levels are per-node, so these
   must not need invalidation), with [check] called after each burst. *)
let edit_session ~seed ~rounds net ~invalidate ~check =
  let st = Random.State.make [| seed; 0x1e7e15 |] in
  let internal =
    Array.of_list
      (List.filter (fun id -> not (Network.is_input net id))
         (Network.topo_order net))
  in
  let ok = ref true in
  (* A degenerate draw (every output cone a bare input) has nothing to
     edit; the property holds vacuously instead of crashing Random.int. *)
  if Array.length internal = 0 then true
  else begin
  for _ = 1 to rounds do
    let dirty = ref [] in
    for _ = 1 to 1 + Random.State.int st 3 do
      let id = internal.(Random.State.int st (Array.length internal)) in
      let k = Array.length (Network.node net id).Network.fanins in
      Network.set_func net id (random_tt st k);
      invalidate id;
      dirty := id :: !dirty
    done;
    if Random.State.bool st then begin
      let i = Random.State.int st (Network.num_outputs net) in
      let id = internal.(Random.State.int st (Array.length internal)) in
      Network.set_output net i ~node:id ~negated:(Random.State.bool st)
    end;
    if not (check !dirty) then ok := false
  done;
  !ok
  end

let prop_inc_levels =
  qtest ~count:40 "incremental levels equal from-scratch under edits" gen_seed
    (fun seed ->
      let g = random_aig ~inputs:6 ~gates:40 seed in
      let net = Network.of_aig ~k:4 g in
      let inc = Network.Levels.Inc.create net in
      edit_session ~seed ~rounds:10 net
        ~invalidate:(Network.Levels.Inc.invalidate inc)
        ~check:(fun _ ->
          Network.Levels.Inc.levels inc = Network.Levels.compute net))

let prop_inc_globals =
  qtest ~count:25 "Globals.update equals of_net under edits" gen_seed
    (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let net = Network.of_aig ~k:4 g in
      let man = Bdd.create () in
      let fanouts = Network.fanouts net in
      let globals = ref (Network.Globals.of_net man net) in
      edit_session ~seed ~rounds:8 net
        ~invalidate:(fun _ -> ())
        ~check:(fun dirty ->
          let fresh = Network.Globals.update man !globals net ~dirty ~fanouts in
          globals := fresh;
          let scratch = Network.Globals.of_net man net in
          (* Hash consing: equal functions are pointer-equal edges. *)
          Array.for_all2 Bdd.equal fresh scratch))

let prop_inc_globals_member =
  qtest ~count:25 "Globals.update ~member equals of_net inside the cone"
    gen_seed (fun seed ->
      let g = random_aig ~inputs:5 ~gates:30 seed in
      let net = Network.of_aig ~k:4 g in
      let man = Bdd.create () in
      let fanouts = Network.fanouts net in
      (* Work inside one output's fanin cone, the driver pattern:
         globals built with of_cluster, edits confined to the cone,
         updates masked to it. Out-of-mask entries are unspecified, so
         only in-cone entries are compared. *)
      let o = Network.output net 0 in
      let cone = Network.cone net o.Network.node in
      let member = Array.make (Network.num_nodes net) false in
      List.iter (fun id -> member.(id) <- true) cone;
      let editable =
        Array.of_list
          (List.filter (fun id -> not (Network.is_input net id)) cone)
      in
      Array.length editable = 0
      ||
      let globals = ref (Network.Globals.of_cluster man net ~nodes:cone) in
      let st = Random.State.make [| seed; 0x5c0e |] in
      let ok = ref true in
      for _ = 1 to 8 do
        let dirty = ref [] in
        for _ = 1 to 1 + Random.State.int st 3 do
          let id = editable.(Random.State.int st (Array.length editable)) in
          let k = Array.length (Network.node net id).Network.fanins in
          Network.set_func net id (random_tt st k);
          dirty := id :: !dirty
        done;
        globals :=
          Network.Globals.update man !globals net ~member ~dirty:!dirty
            ~fanouts;
        let scratch = Network.Globals.of_cluster man net ~nodes:cone in
        if
          not
            (List.for_all
               (fun id -> Bdd.equal !globals.(id) scratch.(id))
               cone)
        then ok := false
      done;
      !ok)

let test_globals_scratch_fallback () =
  (* Dirtying more than half of a scope must take the rebuild-all path
     (counted by globals.scratch_fallbacks) and still agree with a
     from-scratch build. *)
  let g = random_aig ~inputs:5 ~gates:30 7 in
  let net = Network.of_aig ~k:4 g in
  let man = Bdd.create () in
  let fanouts = Network.fanouts net in
  let internal =
    List.filter (fun id -> not (Network.is_input net id))
      (Network.topo_order net)
  in
  let globals = Network.Globals.of_net man net in
  let st = Random.State.make [| 0xfa11 |] in
  List.iter
    (fun id ->
      let k = Array.length (Network.node net id).Network.fanins in
      Network.set_func net id (random_tt st k))
    internal;
  Obs.enable ();
  let before =
    Obs.counter_value (Obs.snapshot ()) "globals.scratch_fallbacks"
  in
  let fresh =
    Network.Globals.update man globals net ~dirty:internal ~fanouts
  in
  let after =
    Obs.counter_value (Obs.snapshot ()) "globals.scratch_fallbacks"
  in
  Alcotest.(check bool) "fallback fired" true (after > before);
  Alcotest.(check bool)
    "fallback result equals from-scratch" true
    (Array.for_all2 Bdd.equal fresh (Network.Globals.of_net man net))

let prop_analysis_cache =
  qtest ~count:25 "Analysis agrees with from-scratch under edits" gen_seed
    (fun seed ->
      let g = random_aig ~inputs:6 ~gates:35 seed in
      let net = Network.of_aig ~k:4 g in
      let analysis = Network.Analysis.create net in
      let wiring_ok =
        Network.Analysis.fanouts analysis = Network.fanouts net
        && List.for_all
             (fun id ->
               Network.Analysis.cone analysis id = Network.cone net id
               && Network.Analysis.support_count analysis id
                  = List.length
                      (List.filter (Network.is_input net)
                         (Network.cone net id)))
             (Network.topo_order net)
      in
      wiring_ok
      && edit_session ~seed ~rounds:8 net
           ~invalidate:(Network.Analysis.invalidate analysis)
           ~check:(fun _ ->
             Network.Analysis.levels analysis = Network.Levels.compute net)
      (* Wiring caches survive the edits: functions don't change cones. *)
      && Network.Analysis.cone analysis (Network.num_nodes net - 1)
         = Network.cone net (Network.num_nodes net - 1))

let prop_analysis_for_copy =
  qtest ~count:25 "Analysis.for_copy seeds a correct child cache" gen_seed
    (fun seed ->
      let g = random_aig ~inputs:6 ~gates:35 seed in
      let net = Network.of_aig ~k:4 g in
      let analysis = Network.Analysis.create net in
      (* Edit the parent a little first so the child is seeded from
         repaired (not pristine) levels. *)
      let parent_ok =
        edit_session ~seed ~rounds:3 net
          ~invalidate:(Network.Analysis.invalidate analysis)
          ~check:(fun _ ->
            Network.Analysis.levels analysis = Network.Levels.compute net)
      in
      let copy = Network.copy net in
      let child = Network.Analysis.for_copy analysis copy in
      let child_ok =
        edit_session ~seed:(seed + 1) ~rounds:6 copy
          ~invalidate:(Network.Analysis.invalidate child)
          ~check:(fun _ ->
            Network.Analysis.levels child = Network.Levels.compute copy)
      in
      (* The parent cache is unaffected by the child's edits. *)
      parent_ok && child_ok
      && Network.Analysis.levels analysis = Network.Levels.compute net)

let () =
  Alcotest.run "network"
    [
      ( "structure",
        [
          Alcotest.test_case "build and eval" `Quick test_build_eval;
          prop_of_aig_direct;
          prop_of_aig_clustered;
          prop_roundtrip;
          prop_cluster_bound;
        ] );
      ( "levels",
        [
          Alcotest.test_case "tree_depth" `Quick test_tree_depth;
          Alcotest.test_case "carry node example" `Quick test_node_level_example;
          prop_levels_bound_aig_depth;
        ] );
      ( "globals", [ prop_globals; prop_cube_image ] );
      ( "incremental",
        [
          prop_inc_levels;
          prop_inc_globals;
          prop_inc_globals_member;
          Alcotest.test_case "scratch fallback on majority-dirty scope"
            `Quick test_globals_scratch_fallback;
          prop_analysis_cache;
          prop_analysis_for_copy;
        ] );
    ]
