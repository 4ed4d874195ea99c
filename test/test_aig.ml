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

(* [Io.blif_to_string]'s oracle: the writer that flushed a [Format]
   formatter per line and named nodes without looking at the input and
   output names. *)
let reference_blif ?(model = "circuit") g =
  let node_name id =
    match Aig.input_name g id with
    | Some s -> s
    | None ->
      if Aig.is_input g id then Printf.sprintf "pi%d" (Aig.input_index g id)
      else Printf.sprintf "n%d" id
  in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let open Format in
  fprintf ppf ".model %s@." model;
  let input_names =
    List.map (fun l -> node_name (Aig.node_of_lit l)) (Aig.inputs g)
  in
  fprintf ppf ".inputs %s@." (String.concat " " input_names);
  fprintf ppf ".outputs %s@." (String.concat " " (List.map fst (Aig.outputs g)));
  for id = 1 to Aig.num_nodes g - 1 do
    if Aig.is_and g id then begin
      let f0, f1 = Aig.fanins g id in
      let n0 = node_name (Aig.node_of_lit f0) in
      let n1 = node_name (Aig.node_of_lit f1) in
      let b0 = if Aig.is_complemented f0 then "0" else "1" in
      let b1 = if Aig.is_complemented f1 then "0" else "1" in
      fprintf ppf ".names %s %s %s@.%s%s 1@." n0 n1 (node_name id) b0 b1
    end
  done;
  List.iter
    (fun (name, l) ->
      let src = node_name (Aig.node_of_lit l) in
      if Aig.node_of_lit l = 0 then
        if Aig.is_complemented l then fprintf ppf ".names %s@.1@." name
        else fprintf ppf ".names %s@." name
      else if Aig.is_complemented l then
        fprintf ppf ".names %s %s@.0 1@." src name
      else if src <> name then fprintf ppf ".names %s %s@.1 1@." src name)
    (Aig.outputs g);
  fprintf ppf ".end@.";
  pp_print_flush ppf ();
  Buffer.contents buf

(* A random graph whose inputs and outputs take distinct names from
   [pool] ([None]: the input stays unnamed), with constant, inverted
   and input-driven outputs among the others. *)
let named_aig ~pool seed =
  let st = Random.State.make [| seed; 7 |] in
  let pool = Array.of_list pool in
  for i = Array.length pool - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  let next = ref 0 in
  let take () =
    let s = pool.(!next) in
    incr next;
    s
  in
  let g = Aig.create () in
  let inputs = 2 + Random.State.int st 5 in
  let ins =
    Array.init inputs (fun _ ->
        if Random.State.bool st then Aig.add_input g
        else Aig.add_input ~name:(take ()) g)
  in
  let lits = ref (Array.to_list ins) in
  let pick () =
    let l = List.nth !lits (Random.State.int st (List.length !lits)) in
    if Random.State.bool st then Aig.bnot l else l
  in
  for _ = 1 to 2 + Random.State.int st 30 do
    lits := Aig.band g (pick ()) (pick ()) :: !lits
  done;
  for _ = 0 to Random.State.int st 4 do
    let l =
      match Random.State.int st 8 with
      | 0 -> if Random.State.bool st then Aig.const_true else Aig.const_false
      | 1 -> ins.(Random.State.int st inputs)
      | _ -> pick ()
    in
    Aig.add_output g (take ()) l
  done;
  g

(* Names that cannot collide with a default: the text is the old
   writer's, byte for byte. *)
let prop_blif_reference =
  qtest ~count:100 "blif text matches the reference writer" gen_seed
    (fun seed ->
      let g = named_aig ~pool:(List.init 20 (Printf.sprintf "s%d")) seed in
      Aig.Io.blif_to_string ~model:"m" g = reference_blif ~model:"m" g)

(* Names drawn from defaults of this graph's size: the text reads back
   as the same circuit. *)
let prop_blif_collisions =
  qtest ~count:200 "blif roundtrip with default-like names" gen_seed
    (fun seed ->
      let pool =
        List.init 40 (Printf.sprintf "n%d")
        @ List.init 8 (Printf.sprintf "pi%d")
        @ [ "n4_1"; "pi0_1"; "n04"; "a" ]
      in
      let g = named_aig ~pool seed in
      let g' = Aig.Io.read_blif (Aig.Io.blif_to_string g) in
      List.map fst (Aig.outputs g) = List.map fst (Aig.outputs g')
      && check_equiv_and_report "blif" g g')

(* The two texts that the old writer corrupted: an input named like the
   AND node it feeds, and an output named like an AND node that does not
   drive it. *)
let test_blif_name_collisions () =
  List.iter
    (fun text ->
      let g = Aig.Io.read_blif text in
      let g' = Aig.Io.read_blif (Aig.Io.blif_to_string g) in
      Alcotest.(check bool) "equivalent" true (check_equiv_and_report "blif" g g'))
    [ ".model t\n.inputs n4 b c\n.outputs y\n.names n4 b t\n11 1\n.names t c y\n11 1\n.end\n";
      ".model t\n.inputs a b c\n.outputs n4 z\n.names a b t\n11 1\n.names t c n4\n11 1\n.names t z\n0 1\n.end\n" ]

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

(* [Cuts.enumerate]'s oracle: the enumeration before leaf signatures
   and scratch-array pruning, leaves only. Every fanin cut pair is merged
   into a fresh array, duplicates are found with polymorphic [=] against
   the newest-first list of merged cuts, which is then stably sorted by
   cost and cut to [per_node]. *)
let reference_cut_leaves g ~k ~per_node =
  let nn = Aig.num_nodes g in
  let cuts = Array.make nn [] in
  let merge_leaves a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make k 0 in
    let rec go i j n =
      if i = la && j = lb then Some (Array.sub out 0 n)
      else if i = la then push b.(j) i (j + 1) n
      else if j = lb then push a.(i) (i + 1) j n
      else if a.(i) = b.(j) then push a.(i) (i + 1) (j + 1) n
      else if a.(i) < b.(j) then push a.(i) (i + 1) j n
      else push b.(j) i (j + 1) n
    and push v i j n =
      if n = k then None
      else begin
        out.(n) <- v;
        go i j (n + 1)
      end
    in
    go 0 0 0
  in
  let lv = Aig.levels g in
  let cut_cost leaves =
    let d = Array.fold_left (fun acc id -> max acc lv.(id)) 0 leaves in
    (d * 100) + Array.length leaves
  in
  for id = 1 to nn - 1 do
    if Aig.is_input g id then cuts.(id) <- [ [| id |] ]
    else if Aig.is_and g id then begin
      let f0, f1 = Aig.fanins g id in
      let id0 = Aig.node_of_lit f0 and id1 = Aig.node_of_lit f1 in
      let c0s = if id0 = 0 then [ [| 0 |] ] else cuts.(id0) in
      let c1s = if id1 = 0 then [ [| 0 |] ] else cuts.(id1) in
      let merged = ref [] in
      List.iter
        (fun c0 ->
          List.iter
            (fun c1 ->
              match merge_leaves c0 c1 with
              | None -> ()
              | Some leaves ->
                if not (List.exists (fun c -> c = leaves) !merged) then
                  merged := leaves :: !merged)
            c1s)
        c0s;
      let sorted =
        List.map (fun c -> (cut_cost c, c)) !merged
        |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let kept = take per_node sorted in
      let direct =
        if id0 = id1 then [| id0 |]
        else if id0 < id1 then [| id0; id1 |]
        else [| id1; id0 |]
      in
      let kept = if List.mem direct kept then kept else direct :: kept in
      cuts.(id) <- [| id |] :: kept
    end
  done;
  cuts

(* Every node's cut leaves, in order, as the reference gives them, at
   k = 4, 6 and 8 and per_node 6 and 8. *)
let prop_cut_leaves =
  qtest ~count:25 "cut leaves match the reference enumeration" gen_seed
    (fun seed ->
      List.for_all
        (fun (k, per_node, inputs, gates) ->
          let g = random_aig ~inputs ~gates seed in
          let cuts = Aig.Cuts.enumerate g ~k ~per_node in
          let reference = reference_cut_leaves g ~k ~per_node in
          Array.for_all2
            (fun cs ref_cs -> List.map Aig.Cuts.leaves cs = ref_cs)
            cuts reference)
        [ (4, 6, 6, 80); (4, 8, 8, 120); (6, 6, 8, 120); (6, 8, 10, 150);
          (8, 6, 10, 150); (8, 8, 12, 200) ])

(* [Cuts.table] packs [Cuts.tt] into an int, bit [m] for minterm [m]. *)
let prop_cut_table =
  qtest ~count:25 "cut table packs the cut function" gen_seed (fun seed ->
      let g = random_aig ~inputs:8 ~gates:80 seed in
      let cuts = Aig.Cuts.enumerate g ~k:5 ~per_node:6 in
      Array.for_all
        (List.for_all (fun c ->
             let tt = Aig.Cuts.tt c and t = Aig.Cuts.table c in
             List.for_all
               (fun m -> Tt.get_bit tt m = ((t lsr m) land 1 = 1))
               (List.init (Tt.size tt) Fun.id)
             && t lsr Tt.size tt = 0))
        cuts)

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

(* [Synth.and_tree]/[or_tree]'s oracle: the sorted list they kept
   before they moved to arrays. A literal, given or built, goes before
   the first one of equal or higher level; the two first are combined. *)
let reference_tree combine unit_lit g lev lits =
  match lits with
  | [] -> unit_lit
  | _ ->
    let insert x l =
      let rec go = function
        | [] -> [ x ]
        | y :: rest -> if fst x <= fst y then x :: y :: rest else y :: go rest
      in
      go l
    in
    let q = List.fold_left (fun q l -> insert (Aig.Lev.level lev l, l) q) [] lits in
    let rec reduce = function
      | [ (_, l) ] -> l
      | (_, a) :: (_, b) :: rest ->
        let c = combine g a b in
        reduce (insert (Aig.Lev.level lev c, c) rest)
      | [] -> unit_lit
    in
    reduce q

(* Ten trees in a row over one random graph, each on 0-14 literals
   drawn from its nodes (levels tie often), AND and OR at random: the
   literals returned and the final graph size must be the oracle's. *)
let prop_tree =
  qtest ~count:200 "synth: and_tree/or_tree match the list queue" gen_seed
    (fun seed ->
      let run and_t or_t =
        let g = random_aig ~inputs:6 ~gates:40 seed in
        let lev = Aig.Lev.create g in
        let st = Random.State.make [| seed; 31 |] in
        let results =
          List.init 10 (fun _ ->
              let n = Aig.num_nodes g in
              let lits =
                List.init (Random.State.int st 15) (fun _ ->
                    Aig.lit_of_node (1 + Random.State.int st (n - 1)) (Random.State.bool st))
              in
              if Random.State.bool st then and_t g lev lits else or_t g lev lits)
        in
        (results, Aig.num_nodes g)
      in
      run Aig.Synth.and_tree Aig.Synth.or_tree
      = run (reference_tree Aig.band Aig.const_true) (reference_tree Aig.bor Aig.const_false))

(* The strash against a [Hashtbl] model of [band]: the same fanin pair,
   in either order, gives the same literal, and a new pair the next
   node id. 6,000 calls take the table through several growths; a third
   of them repeat an earlier pair. *)
let prop_strash_model =
  qtest ~count:20 "strash matches a Hashtbl model across growths" gen_seed
    (fun seed ->
      let st = Random.State.make [| seed; 17 |] in
      let g = Aig.create () in
      let pool = ref (List.init 10 (fun _ -> Aig.add_input g)) and np = ref 10 in
      let model = Hashtbl.create 16 and pairs = ref [||] and nd = ref 0 in
      let ok = ref true in
      let pick () =
        let l = List.nth !pool (Random.State.int st (min !np 40)) in
        if Random.State.bool st then Aig.bnot l else l
      in
      for _ = 1 to 6000 do
        let a, b =
          if !nd > 0 && Random.State.int st 3 = 0 then begin
            let a, b = !pairs.(Random.State.int st !nd) in
            if Random.State.bool st then (b, a) else (a, b)
          end
          else (pick (), pick ())
        in
        let lo = min a b and hi = max a b in
        let expected =
          if lo = Aig.const_false then Aig.const_false
          else if lo = Aig.const_true then hi
          else if lo = hi then lo
          else if lo = Aig.bnot hi then Aig.const_false
          else
            match Hashtbl.find_opt model (lo, hi) with
            | Some l -> l
            | None ->
              let l = Aig.lit_of_node (Aig.num_nodes g) false in
              Hashtbl.replace model (lo, hi) l;
              l
        in
        let got = Aig.band g a b in
        if got <> expected then ok := false;
        if !nd = Array.length !pairs then
          pairs := Array.append !pairs (Array.make (max 16 !nd) (0, 0));
        !pairs.(!nd) <- (a, b);
        incr nd;
        if not (List.mem got !pool) then begin
          pool := got :: !pool;
          incr np
        end
      done;
      !ok && Hashtbl.length model > 2048)

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

(* Names that collide in Verilog: an input called like the default of
   the AND node it feeds ([n4]), two inputs that sanitize alike ([a.b],
   [a_b]), and an output that is an input of the same name. No
   identifier may be declared twice, and no [assign] may read the name
   it defines. *)
let test_verilog_names () =
  let declared text =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ ("input" | "output" | "wire"); x ] -> Some (String.sub x 0 (String.length x - 1))
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let idents s =
    let ok c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = '\'' in
    List.filter (fun x -> x <> "") (String.split_on_char ' ' (String.map (fun c -> if ok c then c else ' ') s))
  in
  List.iter
    (fun blif ->
      let text = Aig.Verilog.to_string (Aig.Io.read_blif blif) in
      let ds = declared text in
      Alcotest.(check int) "each identifier declared once" (List.length ds)
        (List.length (List.sort_uniq compare ds));
      List.iter
        (fun line ->
          match String.split_on_char '=' (String.trim line) with
          | [ lhs; rhs ] when String.length lhs > 7 && String.sub lhs 0 7 = "assign " ->
            let x = String.trim (String.sub lhs 7 (String.length lhs - 7)) in
            if List.mem x (idents rhs) then Alcotest.failf "%s reads itself" (String.trim line)
          | _ -> ())
        (String.split_on_char '\n' text))
    [ ".model t\n.inputs n4 b c\n.outputs y\n.names n4 b t\n11 1\n.names t c y\n11 1\n.end\n";
      ".model t\n.inputs a.b a_b c\n.outputs y a_b a_b_1\n.names a.b a_b y\n11 1\n\
       .names a.b c a_b_1\n11 1\n.end\n" ]

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
          prop_cut_leaves;
          prop_cut_table;
          prop_of_tt_wide;
          prop_divisor;
          prop_leaf_order;
          prop_tree;
          prop_strash_model;
          prop_resub_equiv;
          Alcotest.test_case "resub shortcut" `Quick test_resub_finds_shortcut;
        ] );
      ( "cec-io",
        [
          Alcotest.test_case "cec detects difference" `Quick test_cec_detects_difference;
          prop_blif_roundtrip;
          prop_blif_reference;
          prop_blif_collisions;
          Alcotest.test_case "blif names like defaults" `Quick
            test_blif_name_collisions;
          prop_bench_roundtrip;
          Alcotest.test_case "blif combinational loop" `Quick test_blif_loop;
          Alcotest.test_case "blif tab-separated tokens" `Quick test_blif_tabs;
          Alcotest.test_case "blif malformed rows" `Quick test_blif_bad_rows;
          Alcotest.test_case "bench combinational loop" `Quick test_bench_loop;
          prop_aag_roundtrip;
          prop_aig_binary_roundtrip;
          Alcotest.test_case "verilog" `Quick test_verilog_output;
          Alcotest.test_case "verilog names are unique" `Quick test_verilog_names;
        ] );
    ]
