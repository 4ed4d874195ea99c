type lit = int

type t = {
  mutable fanin0 : int array; (* per node; -1 for inputs; -2 for const *)
  mutable fanin1 : int array;
  mutable n : int; (* number of nodes, constant node 0 included *)
  mutable input_ids : int list; (* reversed *)
  mutable num_inputs : int;
  mutable outputs : (string * lit) list; (* reversed *)
  mutable num_outputs : int;
  mutable strash : int array; (* AND node ids by open addressing; 0 = free *)
  mutable strash_bits : int; (* log2 of the strash's size *)
  mutable strash_count : int;
  names : (int, string) Hashtbl.t;
  input_pos : (int, int) Hashtbl.t;
}

let const_false = 0
let const_true = 1

let create () =
  let g =
    {
      fanin0 = Array.make 16 (-2);
      fanin1 = Array.make 16 (-2);
      n = 1;
      input_ids = [];
      num_inputs = 0;
      outputs = [];
      num_outputs = 0;
      strash = Array.make 1024 0;
      strash_bits = 10;
      strash_count = 0;
      names = Hashtbl.create 64;
      input_pos = Hashtbl.create 64;
    }
  in
  g.fanin0.(0) <- -2;
  g.fanin1.(0) <- -2;
  g

let grow g =
  if g.n >= Array.length g.fanin0 then begin
    let size = 2 * Array.length g.fanin0 in
    let f0 = Array.make size (-2) and f1 = Array.make size (-2) in
    Array.blit g.fanin0 0 f0 0 g.n;
    Array.blit g.fanin1 0 f1 0 g.n;
    g.fanin0 <- f0;
    g.fanin1 <- f1
  end

let lit_of_node id c = (2 * id) + if c then 1 else 0
let node_of_lit l = l lsr 1
let is_complemented l = l land 1 = 1
let bnot l = l lxor 1

let add_input ?name g =
  grow g;
  let id = g.n in
  g.fanin0.(id) <- -1;
  g.fanin1.(id) <- -1;
  g.n <- g.n + 1;
  g.input_ids <- id :: g.input_ids;
  Hashtbl.replace g.input_pos id g.num_inputs;
  g.num_inputs <- g.num_inputs + 1;
  (match name with Some s -> Hashtbl.replace g.names id s | None -> ());
  lit_of_node id false

(* The strash is a table of AND node ids, probed linearly from a
   multiplicative hash of the fanin pair; a slot matches when the node
   in it has those fanins. It stays at most half full. Nothing
   iterates it, so its layout never reaches a node id. *)
let strash_slot bits a b = (((a * 0x2C1B3C6D) + b) * 0x1C69B3F74AC4AE35) lsr (63 - bits)

let rec strash_put tbl mask i id =
  if tbl.(i) = 0 then tbl.(i) <- id else strash_put tbl mask ((i + 1) land mask) id

let strash_grow g =
  let old = g.strash in
  let bits = g.strash_bits + 1 in
  let tbl = Array.make (1 lsl bits) 0 in
  let mask = (1 lsl bits) - 1 in
  Array.iter
    (fun id ->
      if id <> 0 then
        strash_put tbl mask (strash_slot bits g.fanin0.(id) g.fanin1.(id)) id)
    old;
  g.strash <- tbl;
  g.strash_bits <- bits

let band g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = bnot b then const_false
  else begin
    let tbl = g.strash in
    let mask = Array.length tbl - 1 in
    let i = ref (strash_slot g.strash_bits a b) in
    while tbl.(!i) <> 0 && not (g.fanin0.(tbl.(!i)) = a && g.fanin1.(tbl.(!i)) = b) do
      i := (!i + 1) land mask
    done;
    if tbl.(!i) <> 0 then lit_of_node tbl.(!i) false
    else begin
      grow g;
      let id = g.n in
      g.fanin0.(id) <- a;
      g.fanin1.(id) <- b;
      g.n <- g.n + 1;
      tbl.(!i) <- id;
      g.strash_count <- g.strash_count + 1;
      if 2 * g.strash_count > Array.length tbl then strash_grow g;
      lit_of_node id false
    end
  end

let bor g a b = bnot (band g (bnot a) (bnot b))

let bxor g a b =
  (* (a & ~b) | (~a & b) *)
  bor g (band g a (bnot b)) (band g (bnot a) b)

let band_list g = List.fold_left (band g) const_true
let bor_list g = List.fold_left (bor g) const_false

let mux g ~sel ~t ~f = bor g (band g sel t) (band g (bnot sel) f)

let add_output g name l =
  g.outputs <- (name, l) :: g.outputs;
  g.num_outputs <- g.num_outputs + 1

let set_output g i l =
  let arr = Array.of_list (List.rev g.outputs) in
  let name, _ = arr.(i) in
  arr.(i) <- (name, l);
  g.outputs <- List.rev (Array.to_list arr)

let num_inputs g = g.num_inputs
let num_nodes g = g.n
let num_ands g = g.n - 1 - g.num_inputs
let inputs g = List.rev_map (fun id -> lit_of_node id false) g.input_ids
let outputs g = List.rev g.outputs
let is_input g id = id > 0 && id < g.n && g.fanin0.(id) = -1
let is_and g id = id > 0 && id < g.n && g.fanin0.(id) >= 0
let input_index g id = Hashtbl.find g.input_pos id
let input_name g id = Hashtbl.find_opt g.names id
let fanins g id =
  assert (is_and g id);
  (g.fanin0.(id), g.fanin1.(id))

let fanin0 g id =
  assert (is_and g id);
  g.fanin0.(id)

let fanin1 g id =
  assert (is_and g id);
  g.fanin1.(id)

let levels g =
  let lv = Array.make g.n 0 in
  for id = 1 to g.n - 1 do
    if is_and g id then
      lv.(id) <-
        1 + max lv.(node_of_lit g.fanin0.(id)) lv.(node_of_lit g.fanin1.(id))
  done;
  lv

let depth g =
  let lv = levels g in
  List.fold_left (fun acc (_, l) -> max acc lv.(node_of_lit l)) 0 (outputs g)

let reachable g =
  let mark = Array.make g.n false in
  let rec visit id =
    if not mark.(id) then begin
      mark.(id) <- true;
      if is_and g id then begin
        visit (node_of_lit g.fanin0.(id));
        visit (node_of_lit g.fanin1.(id))
      end
    end
  in
  List.iter (fun (_, l) -> visit (node_of_lit l)) (outputs g);
  mark

let num_reachable_ands g =
  let mark = reachable g in
  let count = ref 0 in
  for id = 1 to g.n - 1 do
    if mark.(id) && is_and g id then incr count
  done;
  !count

let fanout_counts g =
  let fo = Array.make g.n 0 in
  for id = 1 to g.n - 1 do
    if is_and g id then begin
      fo.(node_of_lit g.fanin0.(id)) <- fo.(node_of_lit g.fanin0.(id)) + 1;
      fo.(node_of_lit g.fanin1.(id)) <- fo.(node_of_lit g.fanin1.(id)) + 1
    end
  done;
  List.iter
    (fun (_, l) -> fo.(node_of_lit l) <- fo.(node_of_lit l) + 1)
    (outputs g);
  fo

let support_of_lit g l =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      if is_input g id then acc := input_index g id :: !acc
      else if is_and g id then begin
        visit (node_of_lit g.fanin0.(id));
        visit (node_of_lit g.fanin1.(id))
      end
    end
  in
  visit (node_of_lit l);
  List.sort_uniq compare !acc

let copy_cone ~dst ~src ~map ?memo l =
  let memo = match memo with Some m -> m | None -> Hashtbl.create 256 in
  let rec go l =
    let id = node_of_lit l in
    let base =
      match Hashtbl.find_opt memo id with
      | Some b -> b
      | None ->
        let b =
          if id = 0 then const_false
          else if is_input src id then map id
          else begin
            let f0, f1 = fanins src id in
            band dst (go f0) (go f1)
          end
        in
        Hashtbl.add memo id b;
        b
    in
    if is_complemented l then bnot base else base
  in
  go l

let cleanup g =
  let dst = create () in
  let input_map = Hashtbl.create 64 in
  List.iteri
    (fun pos l ->
      let id = node_of_lit l in
      let name = input_name g id in
      let l' = add_input ?name dst in
      Hashtbl.replace input_map pos l')
    (inputs g);
  let map id = Hashtbl.find input_map (input_index g id) in
  let memo = Hashtbl.create 256 in
  List.iter
    (fun (name, l) -> add_output dst name (copy_cone ~dst ~src:g ~map ~memo l))
    (outputs g);
  dst

let sim g words =
  assert (Array.length words = g.num_inputs);
  let values = Array.make g.n 0L in
  List.iteri
    (fun pos l -> values.(node_of_lit l) <- words.(pos))
    (inputs g);
  for id = 1 to g.n - 1 do
    if is_and g id then begin
      let v l =
        let w = values.(node_of_lit l) in
        if is_complemented l then Int64.lognot w else w
      in
      values.(id) <- Int64.logand (v g.fanin0.(id)) (v g.fanin1.(id))
    end
  done;
  values

let eval g bits =
  let words = Array.map (fun b -> if b then -1L else 0L) bits in
  let values = sim g words in
  let out (_, l) =
    let w = values.(node_of_lit l) in
    let b = Int64.logand w 1L = 1L in
    if is_complemented l then not b else b
  in
  Array.of_list (List.map out (outputs g))

let var_patterns =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let tt_of_lit g l =
  (* Simulate 64 minterms at a time: inputs 0..5 take the classic variable
     patterns, higher inputs are constant within each 64-minterm block. *)
  let ni = num_inputs g in
  assert (ni <= 16);
  let blocks = if ni <= 6 then 1 else 1 lsl (ni - 6) in
  let minterms = ref [] in
  for b = 0 to blocks - 1 do
    let words =
      Array.init ni (fun i ->
          if i < 6 then var_patterns.(i)
          else if (b lsr (i - 6)) land 1 = 1 then -1L
          else 0L)
    in
    let values = sim g words in
    let w = values.(node_of_lit l) in
    let w = if is_complemented l then Int64.lognot w else w in
    let upto = min 64 (1 lsl ni) in
    for bit = 0 to upto - 1 do
      if Int64.logand (Int64.shift_right_logical w bit) 1L = 1L then
        minterms := ((b * 64) + bit) :: !minterms
    done
  done;
  Logic.Tt.of_minterms ni !minterms

let pp_stats ppf g =
  Format.fprintf ppf "aig: i/o=%d/%d and=%d lev=%d" (num_inputs g)
    g.num_outputs (num_reachable_ands g) (depth g)
