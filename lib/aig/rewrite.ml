type objective = [ `Delay | `Area ]

let run ?(k = 5) ?(per_node = 6) ~objective src =
  let cuts = Cuts.enumerate src ~k ~per_node in
  let dst = Graph.create () in
  let lev = Lev.create dst in
  let nn = Graph.num_nodes src in
  (* map: src node id -> dst literal, -1 until the node is copied *)
  let map = Array.make nn (-1) in
  List.iter
    (fun l ->
      let id = Graph.node_of_lit l in
      map.(id) <- Graph.add_input ?name:(Graph.input_name src id) dst)
    (Graph.inputs src);
  map.(0) <- Graph.const_false;
  let translate_lit l =
    let b = map.(Graph.node_of_lit l) in
    if Graph.is_complemented l then Graph.bnot b else b
  in
  for id = 1 to nn - 1 do
    if Graph.is_and src id then begin
      let f0, f1 = Graph.fanins src id in
      let default = Graph.band dst (translate_lit f0) (translate_lit f1) in
      let candidates =
        List.filter_map
          (fun c ->
            let leaves = Cuts.leaves c in
            if Array.length leaves < 3 then None
            else if Array.exists (fun lid -> map.(lid) < 0) leaves then None
            else begin
              let before = Graph.num_nodes dst in
              let leaf i = map.(leaves.(i)) in
              let cand = Synth.of_tt dst lev (Cuts.tt c) ~leaf in
              let added = Graph.num_nodes dst - before in
              Some (cand, Lev.level lev cand, added)
            end)
          cuts.(id)
      in
      let dl = Lev.level lev default in
      let better (cand, cl, added) (best, bl, bsize) =
        match objective with
        | `Delay ->
          if cl < bl || (cl = bl && added < bsize) then (cand, cl, added)
          else (best, bl, bsize)
        | `Area ->
          if (added < bsize && cl <= bl + 1) || (added = bsize && cl < bl) then
            (cand, cl, added)
          else (best, bl, bsize)
      in
      let chosen, _, _ =
        List.fold_left (fun acc c -> better c acc) (default, dl, 0) candidates
      in
      map.(id) <- chosen
    end
  done;
  List.iter
    (fun (name, l) -> Graph.add_output dst name (translate_lit l))
    (Graph.outputs src);
  Graph.cleanup dst

let delay_step g = Balance.run (run ~k:6 ~per_node:8 ~objective:`Delay g)

let fixpoint ~step g =
  let better g' g =
    Graph.depth g' < Graph.depth g
    || Graph.depth g' = Graph.depth g
       && Graph.num_reachable_ands g' < Graph.num_reachable_ands g
  in
  let rec go i g =
    if i = 0 then g
    else
      let g' = step g in
      if better g' g then go (i - 1) g' else g
  in
  go 6 (step g)

let delay_fixpoint g = fixpoint ~step:delay_step g
