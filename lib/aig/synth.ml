(* A queue of literals [ls] and their levels [lv], ascending by level.
   [push] puts a literal before the first one of equal or higher level,
   so among equal levels the newest goes first. Node ids depend on this
   rule (DESIGN.md §4 "Factoring order"). *)
let push ls lv len l x =
  let j = ref len in
  while !j > 0 && lv.(!j - 1) >= x do
    ls.(!j) <- ls.(!j - 1);
    lv.(!j) <- lv.(!j - 1);
    decr j
  done;
  ls.(!j) <- l;
  lv.(!j) <- x

(* Combines the two shallowest literals of the queue [ls.(head) ..
   ls.(n - 1)] and inserts the result by [push]'s rule, moving the
   shallower literals one slot into the freed front, until one literal
   is left. *)
let reduce combine g lev ls lv n =
  let head = ref 0 in
  while n - !head > 1 do
    let c = combine g ls.(!head) ls.(!head + 1) in
    let x = Lev.level lev c in
    let j = ref (!head + 2) in
    while !j < n && lv.(!j) < x do
      ls.(!j - 1) <- ls.(!j);
      lv.(!j - 1) <- lv.(!j);
      incr j
    done;
    ls.(!j - 1) <- c;
    lv.(!j - 1) <- x;
    incr head
  done;
  ls.(n - 1)

let tree combine unit_lit g lev lits =
  match lits with
  | [] -> unit_lit
  | _ ->
    let n = List.length lits in
    let ls = Array.make n 0 and lv = Array.make n 0 in
    List.iteri (fun len l -> push ls lv len l (Lev.level lev l)) lits;
    reduce combine g lev ls lv n

let and_tree g lev lits = tree Graph.band Graph.const_true g lev lits
let or_tree g lev lits = tree Graph.bor Graph.const_false g lev lits

(* [and_tree] of a cube's literals, with [leaf] called by ascending
   variable. *)
let cube_tree g lev ~leaf (c : Logic.Cube.t) =
  let n = Logic.Cube.num_literals c in
  if n = 0 then Graph.const_true
  else begin
    let ls = Array.make n 0 and lv = Array.make n 0 in
    let len = ref 0 in
    let m = ref c.mask and i = ref 0 in
    while !m <> 0 do
      if !m land 1 = 1 then begin
        let l = leaf !i in
        let l = if (c.bits lsr !i) land 1 = 1 then l else Graph.bnot l in
        push ls lv !len l (Lev.level lev l);
        incr len
      end;
      m := !m lsr 1;
      incr i
    done;
    reduce Graph.band g lev ls lv n
  end

(* [Hashtbl.hash (i, b)] of the literal in slot [2i + b]. *)
let lit_hash = Array.init (2 * Sys.int_size) (fun s -> Hashtbl.hash (s lsr 1, s land 1 = 1))

(* The literal a cover is divided by: the most frequent one, when it
   occurs at least twice. Literal [(i, b)] counts in slot [2i + b].
   Among equally frequent literals the winner is the first one that
   [Hashtbl.iter] would visit in a [Hashtbl.create 16] filled in
   first-occurrence order: buckets ascending by [Hashtbl.hash (i, b)],
   the newest key first within a bucket, and 32 buckets once more than
   32 literals occur. That order decides which nodes get built, so it
   is part of every output; DESIGN.md §4 states the contract. The
   hashes come from [lit_hash], computed once. *)
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
          (* Bucket first, then the newest key; [rank.(s) < 2n]. *)
          let key = ((lit_hash.(s) land (buckets - 1)) * 2 * n) - rank.(s) in
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
  | [ c ] -> cube_tree g lev ~leaf c
  | cubes ->
    let n = sop.Logic.Sop.n in
    (match divisor sop with
     | None ->
       (* No sharing: plain sum of cubes, built in cover order. *)
       let m = List.length cubes in
       let ls = Array.make m 0 and lv = Array.make m 0 in
       List.iteri
         (fun len c ->
           let l = cube_tree g lev ~leaf c in
           push ls lv len l (Lev.level lev l))
         cubes;
       reduce Graph.bor g lev ls lv m
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
