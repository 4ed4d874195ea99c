(* Unit and property tests for the Boolean-function kernel (lib/logic). *)

module Tt = Logic.Tt
module Cube = Logic.Cube
module Sop = Logic.Sop
module Minimize = Logic.Minimize

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let gen_tt n =
  QCheck.make
    ~print:(fun t -> Tt.to_hex t)
    (QCheck.Gen.map
       (fun seed -> Tt.random (Random.State.make [| seed |]) n)
       QCheck.Gen.int)

(* --- Truth tables ------------------------------------------------------ *)

let test_var_semantics () =
  for n = 1 to 9 do
    for i = 0 to n - 1 do
      let v = Tt.var n i in
      for m = 0 to (1 lsl n) - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "var %d of %d at %d" i n m)
          ((m lsr i) land 1 = 1)
          (Tt.get_bit v m)
      done
    done
  done

let test_const () =
  Alcotest.(check bool) "false is const false" true
    (Tt.is_const_false (Tt.const_false 7));
  Alcotest.(check bool) "true is const true" true
    (Tt.is_const_true (Tt.const_true 7));
  Alcotest.(check int) "count_ones of true" 128 (Tt.count_ones (Tt.const_true 7));
  Alcotest.(check int) "count_ones of var" 8 (Tt.count_ones (Tt.var 4 2))

let test_cofactor_small_large () =
  (* Variable index below and above the word boundary (6). *)
  let n = 8 in
  let st = Random.State.make [| 42 |] in
  let f = Tt.random st n in
  List.iter
    (fun i ->
      let f0 = Tt.cofactor f i false and f1 = Tt.cofactor f i true in
      for m = 0 to (1 lsl n) - 1 do
        let m0 = m land lnot (1 lsl i) and m1 = m lor (1 lsl i) in
        Alcotest.(check bool) "cof0" (Tt.get_bit f m0) (Tt.get_bit f0 m);
        Alcotest.(check bool) "cof1" (Tt.get_bit f m1) (Tt.get_bit f1 m)
      done)
    [ 0; 3; 5; 6; 7 ]

let test_compose () =
  let n = 5 in
  let f = Tt.lor_ (Tt.land_ (Tt.var n 0) (Tt.var n 1)) (Tt.var n 2) in
  let g = Tt.lxor_ (Tt.var n 3) (Tt.var n 4) in
  let h = Tt.compose f 2 g in
  let expect =
    Tt.lor_ (Tt.land_ (Tt.var n 0) (Tt.var n 1)) (Tt.lxor_ (Tt.var n 3) (Tt.var n 4))
  in
  Alcotest.(check bool) "compose substitutes" true (Tt.equal h expect)

let test_permute () =
  let n = 4 in
  let f = Tt.land_ (Tt.var n 0) (Tt.lnot (Tt.var n 3)) in
  let g = Tt.permute f [| 1; 0; 3; 2 |] in
  let expect = Tt.land_ (Tt.var n 1) (Tt.lnot (Tt.var n 2)) in
  Alcotest.(check bool) "permute renames" true (Tt.equal g expect)

let test_support () =
  let n = 6 in
  let f = Tt.lxor_ (Tt.var n 1) (Tt.var n 4) in
  Alcotest.(check (list int)) "support" [ 1; 4 ] (Tt.support f)

let prop_demorgan =
  qtest "tt: de morgan" (QCheck.pair (gen_tt 7) (gen_tt 7)) (fun (a, b) ->
      Tt.equal (Tt.lnot (Tt.land_ a b)) (Tt.lor_ (Tt.lnot a) (Tt.lnot b)))

let prop_shannon =
  qtest "tt: shannon expansion" (gen_tt 8) (fun f ->
      let x = Tt.var 8 3 in
      let f0 = Tt.cofactor f 3 false and f1 = Tt.cofactor f 3 true in
      Tt.equal f (Tt.lor_ (Tt.land_ x f1) (Tt.land_ (Tt.lnot x) f0)))

let prop_exists =
  qtest "tt: exists drops dependence" (gen_tt 7) (fun f ->
      not (Tt.depends_on (Tt.exists f 2) 2))

let prop_minterms_roundtrip =
  qtest "tt: minterms roundtrip" (gen_tt 6) (fun f ->
      Tt.equal f (Tt.of_minterms 6 (Tt.minterms f)))

(* --- Cubes -------------------------------------------------------------- *)

let test_cube_basic () =
  let c = Cube.of_literals [ (0, true); (2, false) ] in
  Alcotest.(check int) "literal count" 2 (Cube.num_literals c);
  Alcotest.(check bool) "mem 0b001" true (Cube.mem c 0b001);
  Alcotest.(check bool) "mem 0b101" false (Cube.mem c 0b101);
  Alcotest.(check string) "to_string" "1-0-" (Cube.to_string 4 c);
  Alcotest.(check int) "minterm count" 4 (Cube.minterm_count 4 c)

let test_cube_intersect () =
  let c = Cube.of_literals [ (0, true) ] in
  let d = Cube.of_literals [ (0, false) ] in
  let e = Cube.of_literals [ (1, true) ] in
  Alcotest.(check bool) "conflict" true (Cube.intersect c d = None);
  (match Cube.intersect c e with
   | Some i ->
     Alcotest.(check string) "product" "11" (Cube.to_string 2 i)
   | None -> Alcotest.fail "expected intersection")

let test_cube_cofactor () =
  let c = Cube.of_literals [ (1, true); (2, false) ] in
  (match Cube.cofactor c 1 true with
   | Some c' -> Alcotest.(check string) "drop literal" "--0" (Cube.to_string 3 c')
   | None -> Alcotest.fail "expected cube");
  Alcotest.(check bool) "conflicting cofactor" true (Cube.cofactor c 1 false = None)

let prop_cube_tt =
  let gen =
    QCheck.make
      ~print:(fun (mask, bits) -> Printf.sprintf "mask=%x bits=%x" mask bits)
      QCheck.Gen.(
        map
          (fun (m, b) -> (m, b land m))
          (pair (int_bound 255) (int_bound 255)))
  in
  (* Over 6 variables (one word) and 8 (four words, so the high literals
     pick words). *)
  qtest "cube: to_tt agrees with mem" gen (fun (mask, bits) ->
      let c = { Cube.mask; bits } in
      List.for_all
        (fun n ->
          let t = Cube.to_tt n c in
          List.for_all (fun m -> Tt.get_bit t m = Cube.mem c m)
            (List.init (1 lsl n) Fun.id))
        [ 6; 8 ])

(* --- SOPs --------------------------------------------------------------- *)

let test_sop_eval () =
  let s =
    Sop.make 3
      [ Cube.of_literals [ (0, true); (1, true) ]; Cube.of_literals [ (2, true) ] ]
  in
  Alcotest.(check bool) "011" true (Sop.eval s 0b011);
  Alcotest.(check bool) "100" true (Sop.eval s 0b100);
  Alcotest.(check bool) "001" false (Sop.eval s 0b001);
  Alcotest.(check int) "literals" 3 (Sop.num_literals s)

let test_sop_ops () =
  let a = Sop.make 2 [ Cube.of_literals [ (0, true) ] ] in
  let b = Sop.make 2 [ Cube.of_literals [ (1, true) ] ] in
  let c = Sop.conj a b in
  Alcotest.(check bool) "conj tt" true
    (Tt.equal (Sop.to_tt c) (Tt.land_ (Sop.to_tt a) (Sop.to_tt b)));
  let d = Sop.disj a b in
  Alcotest.(check bool) "disj tt" true
    (Tt.equal (Sop.to_tt d) (Tt.lor_ (Sop.to_tt a) (Sop.to_tt b)))

let test_drop_contained () =
  let big = Cube.of_literals [ (0, true) ] in
  let small = Cube.of_literals [ (0, true); (1, false) ] in
  let s = Sop.drop_contained (Sop.make 2 [ big; small ]) in
  Alcotest.(check int) "contained cube dropped" 1 (Sop.num_cubes s)

(* --- Minimization ------------------------------------------------------- *)

let prop_isop_cover =
  qtest "isop: lower <= cover <= upper" (QCheck.pair (gen_tt 6) (gen_tt 6))
    (fun (a, b) ->
      let lower = Tt.land_ a b and upper = Tt.lor_ a b in
      let s = Minimize.isop ~lower ~upper in
      let c = Sop.to_tt s in
      Tt.is_const_false (Tt.land_ lower (Tt.lnot c))
      && Tt.is_const_false (Tt.land_ c (Tt.lnot upper)))

let prop_isop_exact =
  qtest "isop: exact when no dc" (gen_tt 7) (fun f ->
      Tt.equal (Sop.to_tt (Minimize.isop ~lower:f ~upper:f)) f)

let prop_min_cover_exact =
  qtest ~count:60 "minimum_cover: equals function" (gen_tt 5) (fun f ->
      let s = Minimize.minimum_cover ~on:f ~dc:(Tt.const_false 5) in
      Tt.equal (Sop.to_tt s) f)

let prop_primes_are_implicants =
  qtest ~count:40 "primes: implicants of on+dc" (QCheck.pair (gen_tt 5) (gen_tt 5))
    (fun (on, dcr) ->
      let dc = Tt.land_ dcr (Tt.lnot on) in
      let cover = Tt.lor_ on dc in
      List.for_all
        (fun c ->
          List.for_all (fun m -> (not (Cube.mem c m)) || Tt.get_bit cover m)
            (List.init 32 Fun.id))
        (Minimize.primes ~on ~dc))

let prop_primes_maximal =
  qtest ~count:40 "primes: no literal removable" (gen_tt 4) (fun on ->
      let dc = Tt.const_false 4 in
      let cover = on in
      let inside c =
        List.for_all (fun m -> (not (Cube.mem c m)) || Tt.get_bit cover m)
          (List.init 16 Fun.id)
      in
      List.for_all
        (fun c ->
          List.for_all
            (fun (i, _) ->
              let c' =
                { Cube.mask = c.Cube.mask land lnot (1 lsl i);
                  bits = c.Cube.bits land lnot (1 lsl i) }
              in
              not (inside c'))
            (Cube.literals c))
        (Minimize.primes ~on ~dc))

(* The scanning prime generator and list-based covering that the
   word-parallel [Minimize] replaced, kept verbatim: the emitted AIGs
   depend on which primes come out, in which order, and on the cube order
   of each cover, so the new code must reproduce all three exactly. *)
module Ref = struct
  let primes ~on ~dc =
    let n = Tt.num_vars on in
    let cover = Tt.lor_ on dc in
    let is_implicant c =
      (* Cube inside cover iff cover has no 0 inside the cube. *)
      let rec check m =
        if m >= Tt.size cover then true
        else if Cube.mem c m && not (Tt.get_bit cover m) then false
        else check (m + 1)
      in
      check 0
    in
    let expand c =
      (* Remove literals while the cube remains an implicant. *)
      List.fold_left
        (fun c (i, _) ->
          let c' = { Cube.mask = c.Cube.mask land lnot (1 lsl i); bits = c.Cube.bits land lnot (1 lsl i) } in
          if is_implicant c' then c' else c)
        c (Cube.literals c)
    in
    let module CS = Set.Make (struct
      type t = Cube.t
      let compare = Cube.compare
    end) in
    let start = ref CS.empty in
    List.iter
      (fun m ->
        let lits = List.init n (fun i -> (i, (m lsr i) land 1 = 1)) in
        let base = Cube.of_literals lits in
        let rec rotations k acc l =
          if k = 0 then acc
          else
            match l with
            | [] -> acc
            | x :: rest -> rotations (k - 1) ((rest @ [ x ]) :: acc) (rest @ [ x ])
        in
        let orders = lits :: rotations (min n 4) [] lits in
        List.iter
          (fun order ->
            let c =
              List.fold_left
                (fun c (i, _) ->
                  let c' =
                    { Cube.mask = c.Cube.mask land lnot (1 lsl i);
                      bits = c.Cube.bits land lnot (1 lsl i) }
                  in
                  if is_implicant c' then c' else c)
                base order
            in
            start := CS.add (expand c) !start)
          orders)
      (Tt.minterms on);
    CS.elements !start

  let minimum_cover ~on ~dc =
    let n = Tt.num_vars on in
    if Tt.is_const_false on then Sop.const_false n
    else if Tt.is_const_true (Tt.lor_ on dc) && not (Tt.is_const_false on) then
      Sop.const_true n
    else begin
      let ps = Array.of_list (primes ~on ~dc) in
      let minterms = Tt.minterms on in
      let covers_of_m =
        List.map
          (fun m ->
            (m, List.filter (fun i -> Cube.mem ps.(i) m) (List.init (Array.length ps) Fun.id)))
          minterms
      in
      let chosen = Hashtbl.create 16 in
      (* Essential primes: sole cover of some minterm. *)
      List.iter
        (fun (_, cs) ->
          match cs with [ i ] -> Hashtbl.replace chosen i () | _ -> ())
        covers_of_m;
      let covered m =
        List.exists (fun i -> Hashtbl.mem chosen i)
          (List.assoc m covers_of_m)
      in
      let rec greedy () =
        let remaining = List.filter (fun (m, _) -> not (covered m)) covers_of_m in
        if remaining <> [] then begin
          let gain = Array.make (Array.length ps) 0 in
          List.iter
            (fun (_, cs) -> List.iter (fun i -> gain.(i) <- gain.(i) + 1) cs)
            remaining;
          let best = ref 0 in
          Array.iteri (fun i g -> if g > gain.(!best) then best := i) gain;
          if gain.(!best) = 0 then ()
          else begin
            Hashtbl.replace chosen !best ();
            greedy ()
          end
        end
      in
      greedy ();
      (* Redundancy removal: drop chosen primes whose minterms are covered by
         the others. *)
      let selected = Hashtbl.fold (fun i () acc -> i :: acc) chosen [] in
      let drop_if_redundant kept i =
        let others = List.filter (fun j -> j <> i) kept in
        let all_covered =
          List.for_all
            (fun (m, _) -> List.exists (fun j -> Cube.mem ps.(j) m) others)
            covers_of_m
        in
        if all_covered then others else kept
      in
      let irredundant = List.fold_left drop_if_redundant selected selected in
      Sop.make n (List.map (fun i -> ps.(i)) irredundant)
    end
end

(* An on-set at one of five densities (1/8 .. 7/8) and, half the time, a
   random don't-care set disjoint from it. *)
let gen_on_dc n =
  QCheck.make
    ~print:(fun (on, dc) -> Printf.sprintf "on=%s dc=%s" (Tt.to_hex on) (Tt.to_hex dc))
    (QCheck.Gen.map
       (fun (seed, density, with_dc) ->
         let st = Random.State.make [| seed |] in
         let r () = Tt.random st n in
         let on =
           match density with
           | 0 -> Tt.lor_ (r ()) (Tt.lor_ (r ()) (r ()))
           | 1 -> Tt.lor_ (r ()) (r ())
           | 2 -> r ()
           | 3 -> Tt.land_ (r ()) (r ())
           | _ -> Tt.land_ (r ()) (Tt.land_ (r ()) (r ()))
         in
         let dc =
           if with_dc then Tt.land_ (Tt.land_ (r ()) (r ())) (Tt.lnot on)
           else Tt.const_false n
         in
         (on, dc))
       QCheck.Gen.(triple int (int_bound 4) bool))

let prop_matches_reference n ~count =
  qtest ~count (Printf.sprintf "matches reference: %d vars" n) (gen_on_dc n)
    (fun (on, dc) ->
      Minimize.primes ~on ~dc = Ref.primes ~on ~dc
      && Minimize.minimum_cover ~on ~dc = Ref.minimum_cover ~on ~dc
      && Minimize.min_sops on
         = ( Ref.minimum_cover ~on ~dc:(Tt.const_false n),
             Ref.minimum_cover ~on:(Tt.lnot on) ~dc:(Tt.const_false n) ))

let props_match_reference =
  List.map
    (fun n -> prop_matches_reference n ~count:(match n with 8 -> 20 | 7 -> 60 | _ -> 300))
    (List.init 9 Fun.id)

(* Every table of at most 4 inputs, with no don't-cares: the covers
   [minimum_cover] builds on native ints must be the reference's, cube
   for cube. *)
let test_all_small_tables () =
  for n = 0 to 4 do
    for t = 0 to (1 lsl (1 lsl n)) - 1 do
      let on = Tt.of_fun n (fun m -> (t lsr m) land 1 = 1) in
      let dc = Tt.const_false n in
      if Minimize.minimum_cover ~on ~dc <> Ref.minimum_cover ~on ~dc then
        Alcotest.failf "minimum_cover differs from the reference on %d vars, table %s" n
          (Tt.to_hex on)
    done
  done

let test_known_minimum () =
  (* f = x0 x1 + ~x0 x2 : classic 2-cube minimum with a consensus term. *)
  let n = 3 in
  let f =
    Tt.lor_
      (Tt.land_ (Tt.var n 0) (Tt.var n 1))
      (Tt.land_ (Tt.lnot (Tt.var n 0)) (Tt.var n 2))
  in
  let s = Minimize.minimum_cover ~on:f ~dc:(Tt.const_false n) in
  Alcotest.(check bool) "exact" true (Tt.equal (Sop.to_tt s) f);
  Alcotest.(check bool) "at most 2 cubes" true (Sop.num_cubes s <= 2)

let () =
  Alcotest.run "logic"
    [
      ( "tt",
        [
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "constants" `Quick test_const;
          Alcotest.test_case "cofactors across word boundary" `Quick
            test_cofactor_small_large;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "permute" `Quick test_permute;
          Alcotest.test_case "support" `Quick test_support;
          prop_demorgan;
          prop_shannon;
          prop_exists;
          prop_minterms_roundtrip;
        ] );
      ( "cube",
        [
          Alcotest.test_case "basics" `Quick test_cube_basic;
          Alcotest.test_case "intersect" `Quick test_cube_intersect;
          Alcotest.test_case "cofactor" `Quick test_cube_cofactor;
          prop_cube_tt;
        ] );
      ( "sop",
        [
          Alcotest.test_case "eval" `Quick test_sop_eval;
          Alcotest.test_case "conj/disj" `Quick test_sop_ops;
          Alcotest.test_case "drop_contained" `Quick test_drop_contained;
        ] );
      ( "minimize",
        [
          prop_isop_cover;
          prop_isop_exact;
          prop_min_cover_exact;
          prop_primes_are_implicants;
          prop_primes_maximal;
          Alcotest.test_case "known minimum" `Quick test_known_minimum;
        ] );
      ( "reference",
        props_match_reference
        @ [ Alcotest.test_case "every table of at most 4 inputs" `Quick
              test_all_small_tables ] );
    ]
