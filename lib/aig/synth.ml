let tree combine unit_lit g lev lits =
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
    let q = List.fold_left (fun q l -> insert (Lev.level lev l, l) q) [] lits in
    let rec reduce = function
      | [ (_, l) ] -> l
      | (_, a) :: (_, b) :: rest ->
        let c = combine g a b in
        reduce (insert (Lev.level lev c, c) rest)
      | [] -> unit_lit
    in
    reduce q

let and_tree g lev lits = tree Graph.band Graph.const_true g lev lits
let or_tree g lev lits = tree Graph.bor Graph.const_false g lev lits

let cube_lits ~leaf c =
  List.map (fun (i, b) -> if b then leaf i else Graph.bnot (leaf i)) (Logic.Cube.literals c)

(* Algebraic quick-factoring. Divides the cover by its most frequent
   literal; cubes not containing the literal form the remainder. *)
let rec factor g lev (sop : Logic.Sop.t) ~leaf =
  match sop.Logic.Sop.cubes with
  | [] -> Graph.const_false
  | [ c ] -> and_tree g lev (cube_lits ~leaf c)
  | cubes ->
    (* Count literal occurrences. *)
    let counts = Hashtbl.create 16 in
    List.iter
      (fun c ->
        List.iter
          (fun litp ->
            let n = try Hashtbl.find counts litp with Not_found -> 0 in
            Hashtbl.replace counts litp (n + 1))
          (Logic.Cube.literals c))
      cubes;
    let best = ref None in
    Hashtbl.iter
      (fun litp n ->
        match !best with
        | Some (_, bn) when bn >= n -> ()
        | _ -> if n >= 2 then best := Some (litp, n))
      counts;
    (match !best with
     | None ->
       (* No sharing: plain sum of cubes. *)
       or_tree g lev (List.map (fun c -> and_tree g lev (cube_lits ~leaf c)) cubes)
     | Some ((i, b), _) ->
       let quotient, remainder =
         List.partition_map
           (fun c ->
             let has =
               List.exists (fun (j, bj) -> j = i && bj = b) (Logic.Cube.literals c)
             in
             if has then
               Left
                 { Logic.Cube.mask = c.Logic.Cube.mask land lnot (1 lsl i);
                   bits = c.Logic.Cube.bits land lnot (1 lsl i) }
             else Right c)
           cubes
       in
       let n = sop.Logic.Sop.n in
       let q = factor g lev (Logic.Sop.make n quotient) ~leaf in
       let div_lit = if b then leaf i else Graph.bnot (leaf i) in
       let l = Graph.band g div_lit q in
       (match remainder with
        | [] -> l
        | _ -> Graph.bor g l (factor g lev (Logic.Sop.make n remainder) ~leaf)))

let of_sop g lev sop ~leaf = factor g lev sop ~leaf

let of_tt g lev tt ~leaf =
  if Logic.Tt.is_const_false tt then Graph.const_false
  else if Logic.Tt.is_const_true tt then Graph.const_true
  else begin
    let on, off = Logic.Minimize.min_sops tt in
    let pos = of_sop g lev on ~leaf in
    let neg = Graph.bnot (of_sop g lev off ~leaf) in
    let lp = Lev.level lev pos and ln = Lev.level lev neg in
    if lp < ln then pos else if ln < lp then neg else pos
  end
