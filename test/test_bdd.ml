(* Tests for the BDD manager: algebra laws, canonicity, and a cross-check
   against truth tables on random functions. *)

module Tt = Logic.Tt

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_tt n =
  QCheck.make
    ~print:(fun t -> Tt.to_hex t)
    (QCheck.Gen.map
       (fun seed -> Tt.random (Random.State.make [| seed |]) n)
       QCheck.Gen.int)

(* Build the BDD of a truth table by applying it to the projection vars. *)
let bdd_of_tt man tt =
  let n = Tt.num_vars tt in
  Bdd.apply_tt man tt (Array.init n (fun i -> Bdd.var man i))

let test_canonicity () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let a = Bdd.bor man x y in
  let b = Bdd.bnot man (Bdd.band man (Bdd.bnot man x) (Bdd.bnot man y)) in
  Alcotest.(check bool) "or = demorgan" true (Bdd.equal a b);
  let c = Bdd.bxor man x x in
  Alcotest.(check bool) "x xor x = false" true (Bdd.is_false man c)

let test_restrict_compose () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 and z = Bdd.var man 2 in
  let f = Bdd.bor man (Bdd.band man x y) z in
  Alcotest.(check bool) "f|x=0 = z... no, = z or nothing" true
    (Bdd.equal (Bdd.restrict man f 0 false) z);
  Alcotest.(check bool) "f|x=1 = y or z" true
    (Bdd.equal (Bdd.restrict man f 0 true) (Bdd.bor man y z));
  let g = Bdd.compose man f 0 z in
  Alcotest.(check bool) "compose x:=z" true
    (Bdd.equal g (Bdd.bor man (Bdd.band man z y) z))

let test_satcount () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  Alcotest.(check (float 1e-9)) "x over 2 vars" 2.0
    (Bdd.satcount man ~nvars:2 x);
  Alcotest.(check (float 1e-9)) "x&y over 3 vars" 2.0
    (Bdd.satcount man ~nvars:3 (Bdd.band man x y));
  Alcotest.(check (float 1e-9)) "true over 10" 1024.0
    (Bdd.satcount man ~nvars:10 (Bdd.btrue man))

let test_any_sat () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 in
  let f = Bdd.band man (Bdd.bnot man x) y in
  (match Bdd.any_sat man f with
   | Some asn ->
     Alcotest.(check bool) "x false" true (List.assoc 0 asn = false);
     Alcotest.(check bool) "y true" true (List.assoc 1 asn = true)
   | None -> Alcotest.fail "expected sat");
  Alcotest.(check bool) "false has no sat" true
    (Bdd.any_sat man (Bdd.bfalse man) = None)

let prop_tt_crosscheck =
  qtest "bdd matches tt through all ops" (QCheck.pair (gen_tt 7) (gen_tt 7))
    (fun (a, b) ->
      let man = Bdd.create () in
      let fa = bdd_of_tt man a and fb = bdd_of_tt man b in
      let pairs =
        [ (Tt.land_ a b, Bdd.band man fa fb);
          (Tt.lor_ a b, Bdd.bor man fa fb);
          (Tt.lxor_ a b, Bdd.bxor man fa fb);
          (Tt.lnot a, Bdd.bnot man fa) ]
      in
      List.for_all (fun (tt, bdd) -> Bdd.equal (bdd_of_tt man tt) bdd) pairs)

let prop_satcount_matches =
  qtest "satcount matches count_ones" (gen_tt 8) (fun t ->
      let man = Bdd.create () in
      let f = bdd_of_tt man t in
      (* The manager may have fewer live vars; count over exactly 8. *)
      let n = List.length (List.init 8 Fun.id) in
      abs_float
        (Bdd.satcount man ~nvars:n f -. float_of_int (Tt.count_ones t))
      < 0.5)

let prop_support =
  qtest "support matches tt" (gen_tt 6) (fun t ->
      let man = Bdd.create () in
      let f = bdd_of_tt man t in
      Bdd.support man f = Tt.support t)

let prop_exists =
  qtest "exists matches tt" (gen_tt 6) (fun t ->
      let man = Bdd.create () in
      let f = bdd_of_tt man t in
      Bdd.equal (Bdd.exists man [ 2; 4 ] f)
        (bdd_of_tt man (Tt.exists (Tt.exists t 2) 4)))

let prop_implies =
  qtest "implies decision" (QCheck.pair (gen_tt 6) (gen_tt 6)) (fun (a, b) ->
      let man = Bdd.create () in
      let fa = bdd_of_tt man a and fb = bdd_of_tt man b in
      Bdd.implies man fa fb
      = Tt.is_const_false (Tt.land_ a (Tt.lnot b)))

(* [disjoint] against the conjunction it avoids building, on random
   tables of up to 8 variables, the same pair twice (the second answer
   comes from the cache), and the operand against itself, its
   complement and both constants. *)
let prop_disjoint =
  let gen =
    QCheck.make
      ~print:(fun (a, b) -> Tt.to_hex a ^ " " ^ Tt.to_hex b)
      QCheck.Gen.(
        int_range 0 8 >>= fun n ->
        map2
          (fun s1 s2 ->
            ( Tt.random (Random.State.make [| s1 |]) n,
              Tt.random (Random.State.make [| s2 |]) n ))
          int int)
  in
  qtest "disjoint = is_false band" gen (fun (a, b) ->
      let man = Bdd.create () in
      let fa = bdd_of_tt man a and fb = bdd_of_tt man b in
      let agrees f g =
        Bdd.disjoint man f g = Bdd.is_false man (Bdd.band man f g)
      in
      List.for_all
        (fun g -> agrees fa g && agrees g fa && agrees fa g)
        [ fb; fa; Bdd.bnot man fa; Bdd.bfalse man; Bdd.btrue man ])

(* ------------------------------------------------------------------ *)
(* Random formula trees over 8 variables, cross-checked against         *)
(* brute-force truth-table evaluation, plus canonical-form invariants.  *)
(* ------------------------------------------------------------------ *)

type formula =
  | Var of int
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Xor of formula * formula
  | Ite of formula * formula * formula

let nvars_formula = 8

let gen_formula =
  let open QCheck.Gen in
  let rec gen depth =
    if depth = 0 then map (fun i -> Var i) (int_bound (nvars_formula - 1))
    else
      frequency
        [
          (2, map (fun i -> Var i) (int_bound (nvars_formula - 1)));
          (1, map (fun f -> Not f) (gen (depth - 1)));
          (2, map2 (fun a b -> And (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> Or (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          (2, map2 (fun a b -> Xor (a, b)) (gen (depth - 1)) (gen (depth - 1)));
          ( 1,
            map3
              (fun a b c -> Ite (a, b, c))
              (gen (depth - 1))
              (gen (depth - 1))
              (gen (depth - 1)) );
        ]
  in
  gen 5

let rec formula_print = function
  | Var i -> Printf.sprintf "x%d" i
  | Not f -> Printf.sprintf "~%s" (formula_print f)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (formula_print a) (formula_print b)
  | Or (a, b) -> Printf.sprintf "(%s | %s)" (formula_print a) (formula_print b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (formula_print a) (formula_print b)
  | Ite (a, b, c) ->
    Printf.sprintf "ite(%s,%s,%s)" (formula_print a) (formula_print b)
      (formula_print c)

let arb_formula = QCheck.make ~print:formula_print gen_formula

let rec formula_bdd man = function
  | Var i -> Bdd.var man i
  | Not f -> Bdd.bnot man (formula_bdd man f)
  | And (a, b) -> Bdd.band man (formula_bdd man a) (formula_bdd man b)
  | Or (a, b) -> Bdd.bor man (formula_bdd man a) (formula_bdd man b)
  | Xor (a, b) -> Bdd.bxor man (formula_bdd man a) (formula_bdd man b)
  | Ite (a, b, c) ->
    Bdd.ite man (formula_bdd man a) (formula_bdd man b) (formula_bdd man c)

let rec formula_tt = function
  | Var i -> Tt.var nvars_formula i
  | Not f -> Tt.lnot (formula_tt f)
  | And (a, b) -> Tt.land_ (formula_tt a) (formula_tt b)
  | Or (a, b) -> Tt.lor_ (formula_tt a) (formula_tt b)
  | Xor (a, b) -> Tt.lxor_ (formula_tt a) (formula_tt b)
  | Ite (a, b, c) ->
    let ta = formula_tt a in
    Tt.lor_
      (Tt.land_ ta (formula_tt b))
      (Tt.land_ (Tt.lnot ta) (formula_tt c))

let prop_formula_crosscheck =
  qtest "formula tree: bdd = brute-force tt" ~count:300 arb_formula (fun fm ->
      let man = Bdd.create () in
      let f = formula_bdd man fm in
      Bdd.equal f (bdd_of_tt man (formula_tt fm)))

let prop_formula_ite_band_bxor =
  qtest "formula tree: ite/band/bxor vs tt"
    (QCheck.triple arb_formula arb_formula arb_formula)
    (fun (fa, fb, fc) ->
      let man = Bdd.create () in
      let a = formula_bdd man fa
      and b = formula_bdd man fb
      and c = formula_bdd man fc in
      let ta = formula_tt fa and tb = formula_tt fb and tc = formula_tt fc in
      let agree tt bdd = Bdd.equal (bdd_of_tt man tt) bdd in
      agree (Tt.land_ ta tb) (Bdd.band man a b)
      && agree (Tt.lxor_ tb tc) (Bdd.bxor man b c)
      && agree
           (Tt.lor_ (Tt.land_ ta tb) (Tt.land_ (Tt.lnot ta) tc))
           (Bdd.ite man a b c))

let prop_formula_exists =
  qtest "formula tree: exists vs tt" arb_formula (fun fm ->
      let man = Bdd.create () in
      let f = formula_bdd man fm in
      let t = formula_tt fm in
      Bdd.equal
        (Bdd.exists man [ 1; 3; 6 ] f)
        (bdd_of_tt man (Tt.exists (Tt.exists (Tt.exists t 1) 3) 6)))

let prop_formula_satcount =
  qtest "formula tree: satcount = tt popcount" arb_formula (fun fm ->
      let man = Bdd.create () in
      let f = formula_bdd man fm in
      let t = formula_tt fm in
      abs_float
        (Bdd.satcount man ~nvars:nvars_formula f
        -. float_of_int (Tt.count_ones t))
      < 0.5)

let prop_canonical_invariant =
  qtest "formula tree: canonical node store" arb_formula (fun fm ->
      let man = Bdd.create () in
      let _ = formula_bdd man fm in
      (* No node with lo = hi, complement bit never on a hi edge,
         variables strictly increasing along every edge. *)
      Bdd.check_canonical man)

let test_stats_and_caches () =
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 and z = Bdd.var man 2 in
  let f = Bdd.bor man (Bdd.band man x y) (Bdd.bxor man y z) in
  let s = Bdd.stats man in
  Alcotest.(check bool) "live nodes positive" true (s.Bdd.live_nodes > 0);
  Alcotest.(check bool)
    "live <= allocated" true
    (s.Bdd.live_nodes < s.Bdd.total_allocated);
  Alcotest.(check bool)
    "unique capacity is a power of two" true
    (s.Bdd.unique_capacity land (s.Bdd.unique_capacity - 1) = 0);
  Alcotest.(check bool)
    "ite cache capacity is a power of two" true
    (s.Bdd.ite_cache_capacity land (s.Bdd.ite_cache_capacity - 1) = 0);
  (* Exercise the satcount memo so clearing has work. *)
  ignore (Bdd.satcount man ~nvars:3 f);
  (* Clearing the caches must not change any function. *)
  Bdd.clear_caches man;
  let s' = Bdd.stats man in
  Alcotest.(check int) "apply memo cleared" 0 s'.Bdd.apply_memo_entries;
  Alcotest.(check bool)
    "f unchanged after clear" true
    (Bdd.equal f (Bdd.bor man (Bdd.band man x y) (Bdd.bxor man y z)));
  Alcotest.(check bool) "still canonical" true (Bdd.check_canonical man)

let test_complement_sharing () =
  (* With complement edges, f and ~f must not duplicate the subgraph:
     negation allocates nothing. *)
  let man = Bdd.create () in
  let x = Bdd.var man 0 and y = Bdd.var man 1 and z = Bdd.var man 2 in
  let f = Bdd.bor man (Bdd.band man x y) z in
  let before = (Bdd.stats man).Bdd.live_nodes in
  let g = Bdd.bnot man f in
  let after = (Bdd.stats man).Bdd.live_nodes in
  Alcotest.(check int) "bnot allocates no nodes" before after;
  Alcotest.(check int) "same graph size" (Bdd.size man f) (Bdd.size man g);
  Alcotest.(check bool) "double negation" true
    (Bdd.equal f (Bdd.bnot man g))

let () =
  Alcotest.run "bdd"
    [
      ( "bdd",
        [
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "restrict/compose" `Quick test_restrict_compose;
          Alcotest.test_case "satcount" `Quick test_satcount;
          Alcotest.test_case "any_sat" `Quick test_any_sat;
          Alcotest.test_case "stats and cache clearing" `Quick
            test_stats_and_caches;
          Alcotest.test_case "complement-edge sharing" `Quick
            test_complement_sharing;
          prop_tt_crosscheck;
          prop_satcount_matches;
          prop_support;
          prop_exists;
          prop_implies;
          prop_disjoint;
          prop_formula_crosscheck;
          prop_formula_ite_band_bxor;
          prop_formula_exists;
          prop_formula_satcount;
          prop_canonical_invariant;
        ] );
    ]
