type node = { fanins : int array; func : Logic.Tt.t }
type output = { name : string; node : int; negated : bool }

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable input_ids : int list; (* reversed *)
  mutable num_inputs : int;
  mutable outs : output array; (* growable; first [num_outs] live *)
  mutable num_outs : int;
  names : (int, string) Hashtbl.t;
  input_pos : (int, int) Hashtbl.t;
}

let dummy_node = { fanins = [||]; func = Logic.Tt.const_false 0 }
let dummy_output = { name = ""; node = 0; negated = false }

let create () =
  {
    nodes = Array.make 16 dummy_node;
    n = 0;
    input_ids = [];
    num_inputs = 0;
    outs = Array.make 4 dummy_output;
    num_outs = 0;
    names = Hashtbl.create 16;
    input_pos = Hashtbl.create 16;
  }

let grow net =
  if net.n >= Array.length net.nodes then begin
    let a = Array.make (2 * Array.length net.nodes) dummy_node in
    Array.blit net.nodes 0 a 0 net.n;
    net.nodes <- a
  end

let add_input ?name net =
  grow net;
  let id = net.n in
  net.nodes.(id) <- dummy_node;
  net.n <- net.n + 1;
  net.input_ids <- id :: net.input_ids;
  Hashtbl.replace net.input_pos id net.num_inputs;
  net.num_inputs <- net.num_inputs + 1;
  (match name with Some s -> Hashtbl.replace net.names id s | None -> ());
  id

let is_input net id = Hashtbl.mem net.input_pos id

let add_node net fanins func =
  assert (Logic.Tt.num_vars func = Array.length fanins);
  Array.iter (fun f -> assert (f >= 0 && f < net.n)) fanins;
  grow net;
  let id = net.n in
  net.nodes.(id) <- { fanins = Array.copy fanins; func };
  net.n <- net.n + 1;
  id

let add_output net name ?(negated = false) id =
  assert (id >= 0 && id < net.n);
  if net.num_outs >= Array.length net.outs then begin
    let a = Array.make (2 * Array.length net.outs) dummy_output in
    Array.blit net.outs 0 a 0 net.num_outs;
    net.outs <- a
  end;
  net.outs.(net.num_outs) <- { name; node = id; negated };
  net.num_outs <- net.num_outs + 1

let set_output net i ~node ~negated =
  assert (i >= 0 && i < net.num_outs);
  net.outs.(i) <- { net.outs.(i) with node; negated }

let num_nodes net = net.n
let num_inputs net = net.num_inputs

let node net id =
  assert (id >= 0 && id < net.n);
  net.nodes.(id)

let outputs net = List.init net.num_outs (fun i -> net.outs.(i))
let num_outputs net = net.num_outs
let output net i =
  assert (i >= 0 && i < net.num_outs);
  net.outs.(i)
let inputs net = List.rev net.input_ids
let input_index net id = Hashtbl.find net.input_pos id

let set_func net id func =
  assert (not (is_input net id));
  let nd = net.nodes.(id) in
  assert (Logic.Tt.num_vars func = Array.length nd.fanins);
  net.nodes.(id) <- { nd with func }

let copy net =
  {
    nodes = Array.copy net.nodes;
    n = net.n;
    input_ids = net.input_ids;
    num_inputs = net.num_inputs;
    outs = Array.copy net.outs;
    num_outs = net.num_outs;
    names = Hashtbl.copy net.names;
    input_pos = Hashtbl.copy net.input_pos;
  }

let topo_order net = List.init net.n Fun.id

(* Ascending node ids are a topological order, so collecting the marked
   ids and sorting gives the cone in topological order without building
   (and filtering) the full [topo_order] list. *)
let cone net root =
  let mark = Array.make net.n false in
  let members = ref [] in
  let rec visit id =
    if not mark.(id) then begin
      mark.(id) <- true;
      members := id :: !members;
      if not (is_input net id) then Array.iter visit net.nodes.(id).fanins
    end
  in
  visit root;
  List.sort compare !members

let fanouts net =
  let fo = Array.make net.n [] in
  for id = 0 to net.n - 1 do
    if not (is_input net id) then
      Array.iter (fun f -> fo.(f) <- id :: fo.(f)) net.nodes.(id).fanins
  done;
  fo

let eval_nodes net bits =
  assert (Array.length bits = net.num_inputs);
  let values = Array.make net.n false in
  for id = 0 to net.n - 1 do
    if is_input net id then values.(id) <- bits.(input_index net id)
    else begin
      let nd = net.nodes.(id) in
      let m = ref 0 in
      Array.iteri (fun i f -> if values.(f) then m := !m lor (1 lsl i)) nd.fanins;
      values.(id) <- Logic.Tt.get_bit nd.func !m
    end
  done;
  values

let eval net bits =
  let values = eval_nodes net bits in
  Array.of_list
    (List.map
       (fun o -> if o.negated then not values.(o.node) else values.(o.node))
       (outputs net))

let input_name net id = Hashtbl.find_opt net.names id

let of_aig_direct g =
  let net = create () in
  let map = Hashtbl.create 256 in
  (* map: AIG node id -> (network node id). Complements are pushed into
     the consuming node functions. *)
  List.iter
    (fun l ->
      let id = Aig.node_of_lit l in
      Hashtbl.replace map id (add_input ?name:(Aig.input_name g id) net))
    (Aig.inputs g);
  let const_id = lazy (add_node net [||] (Logic.Tt.const_false 0)) in
  for id = 1 to Aig.num_nodes g - 1 do
    if Aig.is_and g id then begin
      let f0, f1 = Aig.fanins g id in
      let resolve l =
        let nid =
          if Aig.node_of_lit l = 0 then Lazy.force const_id
          else Hashtbl.find map (Aig.node_of_lit l)
        in
        (nid, Aig.is_complemented l)
      in
      let n0, c0 = resolve f0 and n1, c1 = resolve f1 in
      let v0 = Logic.Tt.var 2 0 and v1 = Logic.Tt.var 2 1 in
      let v0 = if c0 then Logic.Tt.lnot v0 else v0 in
      let v1 = if c1 then Logic.Tt.lnot v1 else v1 in
      let func = Logic.Tt.land_ v0 v1 in
      Hashtbl.replace map id (add_node net [| n0; n1 |] func)
    end
  done;
  List.iter
    (fun (name, l) ->
      let aid = Aig.node_of_lit l in
      let nid =
        if aid = 0 then Lazy.force const_id else Hashtbl.find map aid
      in
      add_output net name ~negated:(Aig.is_complemented l) nid)
    (Aig.outputs g);
  net

let of_aig ?(k = 6) g =
  let cuts = Aig.Cuts.enumerate g ~k ~per_node:8 in
  let nn = Aig.num_nodes g in
  (* Depth-oriented covering: arrival time with unit node delay. *)
  let arrival = Array.make nn 0 in
  let best_cut : Aig.Cuts.cut option array = Array.make nn None in
  for id = 1 to nn - 1 do
    if Aig.is_and g id then begin
      let eval_cut c =
        Array.fold_left
          (fun acc leaf -> max acc arrival.(leaf))
          0 (Aig.Cuts.leaves c)
        + 1
      in
      let candidates =
        List.filter (fun c -> Aig.Cuts.leaves c <> [| id |]) cuts.(id)
      in
      let best =
        List.fold_left
          (fun acc c ->
            let a = eval_cut c in
            match acc with
            | None -> Some (c, a)
            | Some (bc, ba) ->
              if
                a < ba
                || (a = ba
                   && Array.length (Aig.Cuts.leaves c)
                      < Array.length (Aig.Cuts.leaves bc))
              then Some (c, a)
              else acc)
          None candidates
      in
      match best with
      | Some (c, a) ->
        arrival.(id) <- a;
        best_cut.(id) <- Some c
      | None -> assert false
    end
  done;
  (* Cover from the outputs. *)
  let net = create () in
  let map = Hashtbl.create 256 in
  List.iter
    (fun l ->
      let id = Aig.node_of_lit l in
      Hashtbl.replace map id (add_input ?name:(Aig.input_name g id) net))
    (Aig.inputs g);
  let const_id = lazy (add_node net [||] (Logic.Tt.const_false 0)) in
  let rec require id =
    if id = 0 then Lazy.force const_id
    else
      match Hashtbl.find_opt map id with
      | Some nid -> nid
      | None ->
        let c = match best_cut.(id) with Some c -> c | None -> assert false in
        let fanin_ids = Array.map require (Aig.Cuts.leaves c) in
        let nid = add_node net fanin_ids (Aig.Cuts.tt c) in
        Hashtbl.replace map id nid;
        nid
  in
  List.iter
    (fun (name, l) ->
      let nid = require (Aig.node_of_lit l) in
      add_output net name ~negated:(Aig.is_complemented l) nid)
    (Aig.outputs g);
  net

let to_aig net =
  let g = Aig.create () in
  let lev = Aig.Lev.create g in
  let map = Array.make net.n Aig.const_false in
  for id = 0 to net.n - 1 do
    if is_input net id then
      map.(id) <- Aig.add_input ?name:(input_name net id) g
    else begin
      let nd = net.nodes.(id) in
      if Array.length nd.fanins = 0 then
        map.(id) <-
          (if Logic.Tt.is_const_true nd.func then Aig.const_true
           else Aig.const_false)
      else
        map.(id) <-
          Aig.Synth.of_tt g lev nd.func ~leaf:(fun i -> map.(nd.fanins.(i)))
    end
  done;
  List.iter
    (fun o ->
      let l = map.(o.node) in
      Aig.add_output g o.name (if o.negated then Aig.bnot l else l))
    (outputs net);
  Aig.cleanup g

let pp_stats ppf net =
  let internal = net.n - net.num_inputs in
  Format.fprintf ppf "network: inputs=%d nodes=%d outputs=%d" net.num_inputs
    internal net.num_outs
