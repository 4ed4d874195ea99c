(* Tests for the technology mapper, the cell library, and the power
   model. *)

module Tt = Logic.Tt

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Exact float equality, printed in full so a last-bit difference
   shows. *)
let exact_float =
  Alcotest.testable (fun ppf -> Format.fprintf ppf "%h") Float.equal

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

(* [Mapper.map]'s oracle: the mapper before the integer match index.
   Its table is keyed by [Tt.t] and keeps every variant, equivalent ones
   included; a cut's complement is [Tt.lnot]. *)
type ref_variant = { cell : Techmap.Library.cell; perm : int array; phases : int }

let reference_table =
  lazy
    (let rec permutations = function
       | [] -> [ [] ]
       | l ->
         List.concat_map
           (fun x ->
             let rest = List.filter (fun y -> y <> x) l in
             List.map (fun p -> x :: p) (permutations rest))
           l
     in
     let table = Tt.Tbl.create 4096 in
     List.iter
       (fun (cell : Techmap.Library.cell) ->
         let a = cell.Techmap.Library.arity in
         List.iter
           (fun perm ->
             let perm = Array.of_list perm in
             for phases = 0 to (1 lsl a) - 1 do
               let f =
                 Tt.of_fun a (fun m ->
                     let v = ref 0 in
                     for i = 0 to a - 1 do
                       let leaf_bit = (m lsr perm.(i)) land 1 = 1 in
                       let bit = leaf_bit <> ((phases lsr i) land 1 = 1) in
                       if bit then v := !v lor (1 lsl i)
                     done;
                     Tt.get_bit cell.Techmap.Library.func !v)
               in
               let prev = try Tt.Tbl.find table f with Not_found -> [] in
               Tt.Tbl.replace table f ({ cell; perm; phases } :: prev)
             done)
           (permutations (List.init a Fun.id)))
       Techmap.Library.cells;
     table)

type ref_choice = Primary | Inverter | Match of ref_variant * int array

let reference_map g : Techmap.Mapper.gate list =
  let module M = Techmap.Mapper in
  let table = Lazy.force reference_table in
  let matches_for tt = try Tt.Tbl.find table tt with Not_found -> [] in
  let inv_delay = Techmap.Library.inverter.Techmap.Library.intrinsic in
  let nn = Aig.num_nodes g in
  let cuts = Aig.Cuts.enumerate g ~k:4 ~per_node:6 in
  let arrival = Array.make (2 * nn) infinity in
  let choice = Array.make (2 * nn) Primary in
  let idx id inverted = (2 * id) + if inverted then 1 else 0 in
  arrival.(idx 0 false) <- 0.0;
  arrival.(idx 0 true) <- 0.0;
  choice.(idx 0 true) <- Inverter;
  List.iter
    (fun l ->
      let id = Aig.node_of_lit l in
      arrival.(idx id false) <- 0.0;
      arrival.(idx id true) <- inv_delay;
      choice.(idx id true) <- Inverter)
    (Aig.inputs g);
  for id = 1 to nn - 1 do
    if Aig.is_and g id then begin
      List.iter
        (fun c ->
          let leaves = Aig.Cuts.leaves c in
          if Array.length leaves >= 1 && leaves <> [| id |] then begin
            let try_phase tt inverted =
              List.iter
                (fun (v : ref_variant) ->
                  let worst = ref 0.0 in
                  Array.iteri
                    (fun i leaf_pos ->
                      let leaf = leaves.(leaf_pos) in
                      let inv = (v.phases lsr i) land 1 = 1 in
                      let a = arrival.(idx leaf inv) in
                      if a > !worst then worst := a)
                    v.perm;
                  let a = !worst +. v.cell.Techmap.Library.intrinsic in
                  if a < arrival.(idx id inverted) then begin
                    arrival.(idx id inverted) <- a;
                    choice.(idx id inverted) <- Match (v, leaves)
                  end)
                (matches_for tt)
            in
            let tt = Aig.Cuts.tt c in
            try_phase tt false;
            try_phase (Tt.lnot tt) true
          end)
        cuts.(id);
      let relax a b =
        if arrival.(a) +. inv_delay < arrival.(b) then begin
          arrival.(b) <- arrival.(a) +. inv_delay;
          choice.(b) <- Inverter
        end
      in
      relax (idx id false) (idx id true);
      relax (idx id true) (idx id false)
    end
  done;
  let gates = ref [] in
  let produced = Hashtbl.create 256 in
  let rec require id inverted =
    if not (Hashtbl.mem produced (id, inverted)) then begin
      Hashtbl.replace produced (id, inverted) ();
      match choice.(idx id inverted) with
      | Primary -> ()
      | Inverter ->
        require id (not inverted);
        gates :=
          { M.cell = Techmap.Library.inverter;
            fanins = [| { M.node = id; inverted = not inverted } |];
            out = { M.node = id; inverted } }
          :: !gates
      | Match (v, leaves) ->
        let fanins =
          Array.map
            (fun i ->
              let leaf = leaves.(v.perm.(i)) in
              let inv = (v.phases lsr i) land 1 = 1 in
              require leaf inv;
              { M.node = leaf; inverted = inv })
            (Array.init v.cell.Techmap.Library.arity Fun.id)
        in
        gates := { M.cell = v.cell; fanins; out = { M.node = id; inverted } } :: !gates
    end
  in
  List.iter
    (fun (_, l) ->
      let id = Aig.node_of_lit l and inv = Aig.is_complemented l in
      if id <> 0 then require id inv)
    (Aig.outputs g);
  List.rev !gates

let show_gates (gates : Techmap.Mapper.gate list) =
  let signal (s : Techmap.Mapper.signal) =
    Printf.sprintf "%d%s" s.Techmap.Mapper.node
      (if s.Techmap.Mapper.inverted then "'" else "")
  in
  List.map
    (fun (g : Techmap.Mapper.gate) ->
      String.concat " "
        ((g.Techmap.Mapper.cell.Techmap.Library.name
         :: Array.to_list (Array.map signal g.Techmap.Mapper.fanins))
        @ [ "->"; signal g.Techmap.Mapper.out ]))
    gates

(* [Power.dynamic_mw]'s oracle: 32 rounds of the boxed [Aig.sim] and a
   load table of its own, filled as [Mapper.loads] fills one. *)
let reference_power (n : Techmap.Mapper.netlist) =
  let module M = Techmap.Mapper in
  let module L = Techmap.Library in
  let g = n.M.source in
  let ni = Aig.num_inputs g in
  let nn = Aig.num_nodes g in
  let ones = Array.make nn 0 in
  let st = Random.State.make [| 0x9043 land max_int; nn |] in
  for _ = 1 to 32 do
    let words = Array.init ni (fun _ -> Random.State.int64 st Int64.max_int) in
    let values = Aig.sim g words in
    for id = 0 to nn - 1 do
      let rec popcount w acc =
        if w = 0L then acc
        else popcount (Int64.logand w (Int64.sub w 1L)) (acc + 1)
      in
      ones.(id) <- ones.(id) + popcount values.(id) 0
    done
  done;
  let total_bits = float_of_int (64 * 32) in
  let probability id = float_of_int ones.(id) /. total_bits in
  let load = Hashtbl.create 256 in
  let add (s : M.signal) c =
    let key = (s.M.node, s.M.inverted) in
    let prev = try Hashtbl.find load key with Not_found -> 0.0 in
    Hashtbl.replace load key (prev +. c)
  in
  List.iter
    (fun (gate : M.gate) ->
      Array.iter (fun s -> add s gate.M.cell.L.input_cap) gate.M.fanins)
    n.M.gates;
  List.iter (fun (_, s) -> add s 2.0) n.M.primary_outputs;
  let vdd2 = L.vdd *. L.vdd in
  let watts =
    Hashtbl.fold
      (fun (node, _) cap acc ->
        let p = probability node in
        let activity = 2.0 *. p *. (1.0 -. p) in
        acc +. (0.5 *. activity *. (cap *. 1e-15) *. vdd2 *. L.clock_hz))
      load 0.0
  in
  watts *. 1e3

let named_circuits =
  lazy
    ([ ("ripple8", Circuits.Adders.ripple_carry 8);
       ("ripple16", Circuits.Adders.ripple_carry 16);
       ("cla8", Circuits.Adders.carry_lookahead 8);
       ("select8", Circuits.Adders.carry_select 8);
       ("skip16", Circuits.Adders.carry_skip 16);
       ("C880 dc", Baselines.dc_like (Circuits.Suite.build "C880")) ]
    @ List.map
        (fun (i : Circuits.Suite.info) ->
          (i.Circuits.Suite.name, Circuits.Suite.build i.Circuits.Suite.name))
        Circuits.Suite.all)

let prop_map_reference =
  qtest ~count:100 "gate lists match the reference matcher" gen_seed (fun seed ->
      let g = random_aig ~inputs:(4 + (seed mod 8)) ~gates:(20 + (seed mod 120)) seed in
      show_gates (Techmap.Mapper.map g).Techmap.Mapper.gates
      = show_gates (reference_map g))

let test_map_reference_circuits () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check (list string))
        name
        (show_gates (reference_map g))
        (show_gates (Techmap.Mapper.map g).Techmap.Mapper.gates))
    (Lazy.force named_circuits)

let prop_power_reference =
  qtest ~count:100 "power matches the boxed simulation" gen_seed (fun seed ->
      let g = random_aig ~inputs:(4 + (seed mod 8)) ~gates:(20 + (seed mod 120)) seed in
      let n = Techmap.Mapper.map g in
      Techmap.Power.dynamic_mw n = reference_power n)

let test_power_reference_circuits () =
  List.iter
    (fun (name, g) ->
      let n = Techmap.Mapper.map g in
      Alcotest.check exact_float name (reference_power n) (Techmap.Power.dynamic_mw n))
    (Lazy.force named_circuits)

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
          prop_map_reference;
          Alcotest.test_case "reference matcher on circuits" `Quick
            test_map_reference_circuits;
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
          prop_power_reference;
          Alcotest.test_case "boxed simulation on circuits" `Quick
            test_power_reference_circuits;
        ] );
    ]
