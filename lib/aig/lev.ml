(* [memo.(id)] is the level of AND node [id], or 0 while unknown (an AND
   is at level 1 or more). The array grows with the graph. *)
type t = { g : Graph.t; mutable memo : int array }

let create g = { g; memo = Array.make (max 256 (Graph.num_nodes g)) 0 }

let rec level t l =
  let id = Graph.node_of_lit l in
  if id = 0 || Graph.is_input t.g id then 0
  else begin
    if id >= Array.length t.memo then begin
      let memo = Array.make (max (2 * Array.length t.memo) (id + 1)) 0 in
      Array.blit t.memo 0 memo 0 (Array.length t.memo);
      t.memo <- memo
    end;
    let v = t.memo.(id) in
    if v > 0 then v
    else
      let f0, f1 = Graph.fanins t.g id in
      let v = 1 + max (level t f0) (level t f1) in
      t.memo.(id) <- v;
      v
  end
