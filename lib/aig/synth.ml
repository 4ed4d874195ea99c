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

(* The literal a cover is divided by: the most frequent one, when it
   occurs at least twice. Literal [(i, b)] counts in slot [2i + b].
   Among equally frequent literals the winner is the first one that
   [Hashtbl.iter] would visit in a [Hashtbl.create 16] filled in
   first-occurrence order: buckets ascending by [Hashtbl.hash (i, b)],
   the newest key first within a bucket, and 32 buckets once more than
   32 literals occur. That order decides which nodes get built, so it
   is part of every output; DESIGN.md §4 states the contract. *)
let divisor (sop : Logic.Sop.t) =
  let n = sop.Logic.Sop.n in
  let count = Array.make (2 * n) 0 and rank = Array.make (2 * n) 0 in
  let distinct = ref 0 and most = ref 0 in
  List.iter
    (fun (c : Logic.Cube.t) ->
      let rec go m i =
        if m <> 0 then begin
          if m land 1 <> 0 then begin
            let s = (2 * i) + ((c.bits lsr i) land 1) in
            if count.(s) = 0 then begin
              rank.(s) <- !distinct;
              incr distinct
            end;
            count.(s) <- count.(s) + 1;
            if count.(s) > !most then most := count.(s)
          end;
          go (m lsr 1) (i + 1)
        end
      in
      go c.mask 0)
    sop.Logic.Sop.cubes;
  if !most < 2 then None
  else begin
    let buckets = if !distinct > 32 then 32 else 16 in
    let best = ref (-1) and best_key = ref max_int in
    Array.iteri
      (fun s k ->
        if k = !most then begin
          let lit = (s lsr 1, s land 1 = 1) in
          (* Bucket first, then the newest key; [rank.(s) < 2n]. *)
          let key = ((Hashtbl.hash lit land (buckets - 1)) * 2 * n) - rank.(s) in
          if key < !best_key then begin
            best := s;
            best_key := key
          end
        end)
      count;
    Some (!best lsr 1, !best land 1 = 1)
  end

(* Algebraic quick-factoring. Divides the cover by its most frequent
   literal; cubes not containing the literal form the remainder. *)
let rec factor g lev (sop : Logic.Sop.t) ~leaf =
  match sop.Logic.Sop.cubes with
  | [] -> Graph.const_false
  | [ c ] -> and_tree g lev (cube_lits ~leaf c)
  | cubes ->
    let n = sop.Logic.Sop.n in
    (match divisor sop with
     | None ->
       (* No sharing: plain sum of cubes. *)
       or_tree g lev (List.map (fun c -> and_tree g lev (cube_lits ~leaf c)) cubes)
     | Some (i, b) ->
       let bit = 1 lsl i in
       let want = if b then bit else 0 in
       let quotient, remainder =
         List.partition_map
           (fun (c : Logic.Cube.t) ->
             if c.mask land bit <> 0 && c.bits land bit = want then
               Left { Logic.Cube.mask = c.mask land lnot bit; bits = c.bits land lnot bit }
             else Right c)
           cubes
       in
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
