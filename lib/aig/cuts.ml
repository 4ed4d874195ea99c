(* 64-bit words of a [Bytes] buffer. The native compiler keeps the int64
   values between these primitives unboxed, so a walk allocates nothing
   per node. Every word is written before it is read, so the byte order
   never shows. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Word patterns of variables 0..5, as in [Logic.Tt]. *)
let var_word =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

(* Working state of the table walks of one enumeration. Node [id] has a
   table in the current walk when [stamp_of.(id) = stamp]: the [words]
   words from word [slot.(id)] of [buf]. The leaves take the first slots
   and every other cone node the next free one, so a walk uses one
   buffer whatever the number of leaves. Bumping [stamp] frees them
   all. *)
type walk = {
  g : Graph.t;
  mutable stamp : int;
  stamp_of : int array;
  slot : int array;
  mutable buf : Bytes.t;
  mutable top : int;
  mutable words : int;
}

let walk g =
  let nn = Graph.num_nodes g in
  { g;
    stamp = 0;
    stamp_of = Array.make nn 0;
    slot = Array.make nn 0;
    buf = Bytes.create (8 * 256);
    top = 0;
    words = 1 }

(* The next free slot, growing the buffer when it is full. *)
let alloc w =
  let s = w.top in
  let need = 8 * (s + w.words) in
  if need > Bytes.length w.buf then begin
    let b = Bytes.create (max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 b 0 (8 * s);
    w.buf <- b
  end;
  w.top <- s + w.words;
  s

let bind w id s =
  w.stamp_of.(id) <- w.stamp;
  w.slot.(id) <- s

(* Slot of node [id]'s table. All paths from [id] must stop at leaves. *)
let rec fill w id =
  if w.stamp_of.(id) = w.stamp then w.slot.(id)
  else if id = 0 then begin
    let s = alloc w in
    for j = 0 to w.words - 1 do
      set64 w.buf (8 * (s + j)) 0L
    done;
    bind w id s;
    s
  end
  else begin
    let f0 = Graph.fanin0 w.g id and f1 = Graph.fanin1 w.g id in
    let s0 = fill w (Graph.node_of_lit f0) in
    let s1 = fill w (Graph.node_of_lit f1) in
    let s = alloc w in
    let buf = w.buf in
    (* All ones for a complemented fanin, zero otherwise. *)
    let m0 = Int64.of_int (-(f0 land 1)) and m1 = Int64.of_int (-(f1 land 1)) in
    for j = 0 to w.words - 1 do
      set64 buf
        (8 * (s + j))
        (Int64.logand
           (Int64.logxor (get64 buf (8 * (s0 + j))) m0)
           (Int64.logxor (get64 buf (8 * (s1 + j))) m1))
    done;
    bind w id s;
    s
  end

(* Walk the cone of [root] down to the ordered [leaves]; the slot of the
   root's table. Bits past [2^n] of a one-word table are not cleared. *)
let walk_cut w root leaves =
  let n = Array.length leaves in
  assert (n <= 16);
  w.stamp <- w.stamp + 1;
  w.top <- 0;
  w.words <- (if n <= 6 then 1 else 1 lsl (n - 6));
  for i = 0 to n - 1 do
    let s = alloc w in
    for j = 0 to w.words - 1 do
      set64 w.buf
        (8 * (s + j))
        (if i < 6 then var_word.(i)
         else if (j lsr (i - 6)) land 1 = 1 then -1L
         else 0L)
    done;
    bind w leaves.(i) s
  done;
  fill w root

(* A cut's leaf signature has bit [id mod Sys.int_size] set for each
   leaf [id]. Distinct leaves may share a bit, so its popcount is a lower
   bound on the number of leaves. *)
let sign_bit id = 1 lsl (id mod Sys.int_size)

(* [more_than k s]: [s] has more than [k] bits set. *)
let rec more_than k s = s <> 0 && (k = 0 || more_than (k - 1) (s land (s - 1)))

(* A cut's table is walked on each read; nothing is kept. Most merged
   cuts are dropped by per-node pruning, and a cover reads one cut per
   node. The walk, not a composition of the fanin cuts' tables, because a
   leaf of one fanin's cut may lie inside the other fanin's cone; the walk
   stops there and composition would not. *)
type cut = { leaves : int array; sign : int; root : int; walk : walk }

let leaves c = c.leaves

let tt c =
  let w = c.walk in
  let s = walk_cut w c.root c.leaves in
  Logic.Tt.of_words (Array.length c.leaves)
    (Array.init w.words (fun j -> get64 w.buf (8 * (s + j))))

let table c =
  let n = Array.length c.leaves in
  if n > 5 then invalid_arg "Aig.Cuts.table: more than 5 leaves";
  let w = c.walk in
  let s = walk_cut w c.root c.leaves in
  Int64.to_int (get64 w.buf (8 * s)) land ((1 lsl (1 lsl n)) - 1)

(* One node's merged cuts before pruning, in the order they were made:
   candidate [i] has the [s_n.(i)] leaves from [s_leaves.(i * k)],
   signature [s_sign.(i)] and pruning cost [s_cost.(i)]. Only the kept
   ones become [cut] records. *)
type scratch = {
  s_k : int;
  mutable s_cap : int;
  mutable s_leaves : int array;
  mutable s_n : int array;
  mutable s_sign : int array;
  mutable s_cost : int array;
}

let ensure sc m =
  if m > sc.s_cap then begin
    sc.s_cap <- m;
    sc.s_leaves <- Array.make (m * sc.s_k) 0;
    sc.s_n <- Array.make m 0;
    sc.s_sign <- Array.make m 0;
    sc.s_cost <- Array.make m 0
  end

(* Merge the sorted arrays [a] and [b], from positions [i] and [j], into
   [out] from [off + n]: the size of the union, or -1 when it exceeds
   [k]. Top level, so that a merge allocates no closure. *)
let rec merge_into out off k (a : int array) (b : int array) i j n =
  let la = Array.length a and lb = Array.length b in
  if i = la && j = lb then n
  else if n = k then -1
  else if j = lb || (i < la && a.(i) < b.(j)) then begin
    out.(off + n) <- a.(i);
    merge_into out off k a b (i + 1) j (n + 1)
  end
  else if i = la || b.(j) < a.(i) then begin
    out.(off + n) <- b.(j);
    merge_into out off k a b i (j + 1) (n + 1)
  end
  else begin
    out.(off + n) <- a.(i);
    merge_into out off k a b (i + 1) (j + 1) (n + 1)
  end

let rec same_from (a : int array) oa (b : int array) ob n i =
  i = n || (a.(oa + i) = b.(ob + i) && same_from a oa b ob n (i + 1))

(* Some candidate before [m] has the leaves of candidate [m]. *)
let rec seen sc m j =
  j < m
  && ((sc.s_sign.(j) = sc.s_sign.(m) && sc.s_n.(j) = sc.s_n.(m)
      && same_from sc.s_leaves (j * sc.s_k) sc.s_leaves (m * sc.s_k) sc.s_n.(m) 0)
     || seen sc m (j + 1))

(* Some cut of the list has signature [sign] and the [n] leaves
   [pair.(0 .. n-1)]. *)
let rec has_leaves sign pair n = function
  | [] -> false
  | c :: rest ->
    (c.sign = sign && Array.length c.leaves = n && same_from c.leaves 0 pair 0 n 0)
    || has_leaves sign pair n rest

let enumerate g ~k ~per_node =
  let nn = Graph.num_nodes g in
  let cuts = Array.make nn [] in
  let w = walk g in
  let lv = Graph.levels g in
  let trivial id = { leaves = [| id |]; sign = sign_bit id; root = id; walk = w } in
  let const_cuts = [ trivial 0 ] in
  let sc =
    { s_k = k; s_cap = 0; s_leaves = [||]; s_n = [||]; s_sign = [||]; s_cost = [||] }
  in
  let m = ref 0 in
  (* Merge [c0] with every cut of [c1s] into the next free candidate,
     in order, keeping the first of each leaf set. A pair whose
     signatures together have more than [k] bits set cannot fit and is
     not merged. *)
  let rec merge_with c0 = function
    | [] -> ()
    | c1 :: rest ->
      let sign = c0.sign lor c1.sign in
      if not (more_than k sign) then begin
        let i = !m in
        let n = merge_into sc.s_leaves (i * k) k c0.leaves c1.leaves 0 0 0 in
        if n >= 0 then begin
          sc.s_n.(i) <- n;
          sc.s_sign.(i) <- sign;
          if not (seen sc i 0) then begin
            (* Prefer small cuts with shallow leaves. *)
            let d = ref 0 in
            for j = i * k to (i * k) + n - 1 do
              if lv.(sc.s_leaves.(j)) > !d then d := lv.(sc.s_leaves.(j))
            done;
            sc.s_cost.(i) <- (!d * 100) + n;
            m := i + 1
          end
        end
      end;
      merge_with c0 rest
  in
  let rec merge_all c1s = function
    | [] -> ()
    | c0 :: rest ->
      merge_with c0 c1s;
      merge_all c1s rest
  in
  (* The [per_node] cheapest candidates, ties to the later made, as a
     stable sort of the newest-first list orders them. The order of
     [cuts.(id)] reaches every cover, hence every BLIF. *)
  let best = Array.make per_node 0 in
  let pair = Array.make 2 0 in
  for id = 1 to nn - 1 do
    if Graph.is_input g id then cuts.(id) <- [ trivial id ]
    else if Graph.is_and g id then begin
      let id0 = Graph.node_of_lit (Graph.fanin0 g id)
      and id1 = Graph.node_of_lit (Graph.fanin1 g id) in
      let c0s = if id0 = 0 then const_cuts else cuts.(id0) in
      let c1s = if id1 = 0 then const_cuts else cuts.(id1) in
      ensure sc (List.length c0s * List.length c1s);
      m := 0;
      merge_all c1s c0s;
      let nb = ref 0 in
      for i = !m - 1 downto 0 do
        let c = sc.s_cost.(i) in
        if !nb < per_node || (per_node > 0 && c < sc.s_cost.(best.(!nb - 1)))
        then begin
          (* Insert after every kept candidate of cost <= c; when [best]
             is full, its last one drops out. *)
          let j = ref (if !nb < per_node then !nb else per_node - 1) in
          while !j > 0 && sc.s_cost.(best.(!j - 1)) > c do
            best.(!j) <- best.(!j - 1);
            decr j
          done;
          best.(!j) <- i;
          if !nb < per_node then incr nb
        end
      done;
      let kept = ref [] in
      for b = !nb - 1 downto 0 do
        let i = best.(b) in
        kept :=
          { leaves = Array.sub sc.s_leaves (i * k) sc.s_n.(i);
            sign = sc.s_sign.(i);
            root = id;
            walk = w }
          :: !kept
      done;
      let kept = !kept in
      (* The direct two-leaf cut must always survive pruning: structural
         mapping relies on a NAND/AND match existing for every node. *)
      pair.(0) <- (if id0 < id1 then id0 else id1);
      pair.(1) <- (if id0 < id1 then id1 else id0);
      let nd = if id0 = id1 then 1 else 2 in
      let sign = sign_bit id0 lor sign_bit id1 in
      let kept =
        if has_leaves sign pair nd kept then kept
        else { leaves = Array.sub pair 0 nd; sign; root = id; walk = w } :: kept
      in
      cuts.(id) <- trivial id :: kept
    end
  done;
  cuts
