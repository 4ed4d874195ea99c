(* Working arrays of [cut_function], allocated once per enumeration.
   Node [id] is a leaf of the current walk when [leaf_stamp.(id) =
   stamp], at position [leaf_pos.(id)]; its table is memoized in
   [memo.(id)] when [memo_stamp.(id) = stamp]. Bumping [stamp] clears
   both. *)
type walk = {
  g : Graph.t;
  mutable stamp : int;
  leaf_stamp : int array;
  leaf_pos : int array;
  memo_stamp : int array;
  memo : Logic.Tt.t array;
}

let walk g =
  let nn = Graph.num_nodes g in
  { g;
    stamp = 0;
    leaf_stamp = Array.make nn 0;
    leaf_pos = Array.make nn 0;
    memo_stamp = Array.make nn 0;
    memo = Array.make nn (Logic.Tt.const_false 0) }

(* Truth table of literal [l] over the ordered [leaves]. All paths from
   [l] must stop at leaves. *)
let cut_function w l leaves =
  let n = Array.length leaves in
  assert (n <= 16);
  w.stamp <- w.stamp + 1;
  let stamp = w.stamp in
  Array.iteri
    (fun i id ->
      w.leaf_stamp.(id) <- stamp;
      w.leaf_pos.(id) <- i)
    leaves;
  let rec go l =
    let id = Graph.node_of_lit l in
    let base =
      if w.leaf_stamp.(id) = stamp then Logic.Tt.var n w.leaf_pos.(id)
      else if w.memo_stamp.(id) = stamp then w.memo.(id)
      else begin
        let t =
          if id = 0 then Logic.Tt.const_false n
          else begin
            assert (Graph.is_and w.g id);
            let f0, f1 = Graph.fanins w.g id in
            Logic.Tt.land_ (go f0) (go f1)
          end
        in
        w.memo_stamp.(id) <- stamp;
        w.memo.(id) <- t;
        t
      end
    in
    if Graph.is_complemented l then Logic.Tt.lnot base else base
  in
  go l

(* A cut's table is walked on its first read: most merged cuts are
   dropped by per-node pruning, and a cover reads one cut per node. The
   walk, not a composition of the fanin cuts' tables, because a leaf of
   one fanin's cut may lie inside the other fanin's cone; the walk stops
   there and composition would not. *)
type cut = {
  leaves : int array;
  root : int;
  walk : walk;
  mutable table : Logic.Tt.t option;
}

let leaves c = c.leaves

let tt c =
  match c.table with
  | Some t -> t
  | None ->
    let t = cut_function c.walk (Graph.lit_of_node c.root false) c.leaves in
    c.table <- Some t;
    t

let merge_leaves k a b =
  (* Merge two sorted arrays; None when the union exceeds k. *)
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

let enumerate g ~k ~per_node =
  let nn = Graph.num_nodes g in
  let cuts = Array.make nn [] in
  let w = walk g in
  let cut root leaves = { leaves; root; walk = w; table = None } in
  let trivial id =
    { leaves = [| id |]; root = id; walk = w;
      table = Some (Logic.Tt.var 1 0) }
  in
  let lv = Graph.levels g in
  let cut_cost c =
    (* Prefer small cuts with shallow leaves. *)
    let d = Array.fold_left (fun acc id -> max acc lv.(id)) 0 c.leaves in
    (d * 100) + Array.length c.leaves
  in
  for id = 1 to nn - 1 do
    if Graph.is_input g id then cuts.(id) <- [ trivial id ]
    else if Graph.is_and g id then begin
      let f0, f1 = Graph.fanins g id in
      let id0 = Graph.node_of_lit f0 and id1 = Graph.node_of_lit f1 in
      let c0s = if id0 = 0 then [ trivial 0 ] else cuts.(id0) in
      let c1s = if id1 = 0 then [ trivial 0 ] else cuts.(id1) in
      let merged = ref [] in
      List.iter
        (fun c0 ->
          List.iter
            (fun c1 ->
              match merge_leaves k c0.leaves c1.leaves with
              | None -> ()
              | Some leaves ->
                (* Avoid duplicates by leaf set. *)
                if
                  not
                    (List.exists (fun c -> c.leaves = leaves) !merged)
                then merged := cut id leaves :: !merged)
            c1s)
        c0s;
      (* Each cost once; the stable sort keeps equal-cost cuts in order. *)
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
      (* The direct two-leaf cut must always survive pruning: structural
         mapping relies on a NAND/AND match existing for every node. *)
      let direct_leaves =
        if id0 = id1 then [| id0 |]
        else if id0 < id1 then [| id0; id1 |]
        else [| id1; id0 |]
      in
      let kept =
        if List.exists (fun c -> c.leaves = direct_leaves) kept then kept
        else cut id direct_leaves :: kept
      in
      cuts.(id) <- trivial id :: kept
    end
  done;
  cuts
