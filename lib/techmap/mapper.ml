type signal = { node : int; inverted : bool }

type gate = {
  cell : Library.cell;
  fanins : signal array;
  out : signal;
}

type netlist = {
  gates : gate list;
  primary_inputs : int list;
  primary_outputs : (string * signal) list;
  source : Aig.t;
}

(* One way of realizing a cut function with a cell: cell input [i]
   connects to cut leaf [perm.(i)], inverted when bit [i] of [phases] is
   set. *)
type variant = { cell : Library.cell; perm : int array; phases : int }

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* The function a variant computes over the cut leaves, packed as
   [Aig.Cuts.table] packs a cut's: leaf j feeds the cell inputs i with
   perm.(i) = j, inverted per phase bit. *)
let variant_table (cell : Library.cell) perm phases =
  let a = cell.Library.arity in
  let f = ref 0 in
  for m = 0 to (1 lsl a) - 1 do
    let v = ref 0 in
    for i = 0 to a - 1 do
      let leaf_bit = (m lsr perm.(i)) land 1 = 1 in
      let bit = leaf_bit <> ((phases lsr i) land 1 = 1) in
      if bit then v := !v lor (1 lsl i)
    done;
    if Logic.Tt.get_bit cell.Library.func !v then f := !f lor (1 lsl m)
  done;
  !f

(* The leaves a variant reads inverted, as a bit set. With the cell, it
   names the variant's set of (leaf, phase) pins. *)
let inverted_leaves v =
  let s = ref 0 in
  Array.iteri
    (fun i j -> if (v.phases lsr i) land 1 = 1 then s := !s lor (1 lsl j))
    v.perm;
  !s

(* Match table: [keys] holds [(arity lsl 16) lor table] for every
   function a cell variant computes over a cut's leaves, sorted;
   [variants.(i)] the variants computing [keys.(i)], last built first.
   A variant with the same cell and the same (leaf, phase) pins as an
   earlier one in its list has the same arrival, so it can never pass
   the strict [<] of [map] and is left out: the choice is the same
   without it. *)
type index = { keys : int array; variants : variant array array }

let key arity table = (arity lsl 16) lor table

let match_table =
  lazy
    (let lists = Hashtbl.create 1024 in
     List.iter
       (fun (cell : Library.cell) ->
         let a = cell.Library.arity in
         List.iter
           (fun perm ->
             let perm = Array.of_list perm in
             for phases = 0 to (1 lsl a) - 1 do
               let k = key a (variant_table cell perm phases) in
               let prev = try Hashtbl.find lists k with Not_found -> [] in
               Hashtbl.replace lists k ({ cell; perm; phases } :: prev)
             done)
           (permutations (List.init a Fun.id)))
       Library.cells;
     (* The first variant of each cell and set of inverted leaves. *)
     let rec distinct seen = function
       | [] -> []
       | v :: rest ->
         let pins = inverted_leaves v in
         if List.exists (fun (w, p) -> w.cell == v.cell && p = pins) seen
         then distinct seen rest
         else v :: distinct ((v, pins) :: seen) rest
     in
     let keys =
       Array.of_list
         (List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) lists []))
     in
     { keys;
       variants =
         Array.map (fun k -> Array.of_list (distinct [] (Hashtbl.find lists k))) keys })

(* Position of [k] in [keys], or -1. *)
let find idx k =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let km = idx.keys.(mid) in
      if km = k then mid else if km < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length idx.keys)

(* Forced by the first [map] call rather than at start-up, which would
   charge every process ~5 ms before its first optimizer call. Portfolio
   arms map from several domains at once, and a domain forcing a lazy
   value that another domain is still computing raises
   [CamlinternalLazy.Undefined], so the force runs under a lock. Once
   built the index is only read. *)
let match_table_lock = Mutex.create ()

(* How one (node, phase) is realized: a primary input or constant in
   positive phase, the opposite phase through an INV, or a match, whose
   variant and cut leaves [map] keeps beside it. *)
type choice = Primary | Inverter | Match

let inv_delay = Library.inverter.Library.intrinsic

let map g =
  let idx =
    Mutex.protect match_table_lock (fun () -> Lazy.force match_table)
  in
  let nn = Aig.num_nodes g in
  let cuts = Aig.Cuts.enumerate g ~k:4 ~per_node:6 in
  (* Index [2 * id + 1] is node [id] inverted. *)
  let arrival = Array.make (2 * nn) infinity in
  let choice = Array.make (2 * nn) Primary in
  let variant = Array.make (2 * nn) { cell = Library.inverter; perm = [||]; phases = 0 } in
  let cut_leaves = Array.make (2 * nn) [||] in
  arrival.(0) <- 0.0;
  arrival.(1) <- 0.0;
  choice.(1) <- Inverter;
  List.iter
    (fun l ->
      let id = Aig.node_of_lit l in
      arrival.(2 * id) <- 0.0;
      arrival.((2 * id) + 1) <- inv_delay;
      choice.((2 * id) + 1) <- Inverter)
    (Aig.inputs g);
  let try_variants o leaves vs =
    for x = 0 to Array.length vs - 1 do
      let v = vs.(x) in
      let worst = ref 0.0 in
      for i = 0 to Array.length v.perm - 1 do
        let a = arrival.((2 * leaves.(v.perm.(i))) + ((v.phases lsr i) land 1)) in
        if a > !worst then worst := a
      done;
      let a = !worst +. v.cell.Library.intrinsic in
      if a < arrival.(o) then begin
        arrival.(o) <- a;
        choice.(o) <- Match;
        variant.(o) <- v;
        cut_leaves.(o) <- leaves
      end
    done
  in
  let try_table o leaves n t =
    let i = find idx (key n t) in
    if i >= 0 then try_variants o leaves idx.variants.(i)
  in
  let rec try_cuts id = function
    | [] -> ()
    | c :: rest ->
      let leaves = Aig.Cuts.leaves c in
      let n = Array.length leaves in
      if n >= 1 && not (n = 1 && leaves.(0) = id) then begin
        let t = Aig.Cuts.table c in
        try_table (2 * id) leaves n t;
        try_table ((2 * id) + 1) leaves n (t lxor ((1 lsl (1 lsl n)) - 1))
      end;
      try_cuts id rest
  in
  (* Phase relaxation through an inverter. *)
  let relax a b =
    if arrival.(a) +. inv_delay < arrival.(b) then begin
      arrival.(b) <- arrival.(a) +. inv_delay;
      choice.(b) <- Inverter
    end
  in
  for id = 1 to nn - 1 do
    if Aig.is_and g id then begin
      try_cuts id cuts.(id);
      relax (2 * id) ((2 * id) + 1);
      relax ((2 * id) + 1) (2 * id)
    end
  done;
  (* Extract the cover from the outputs. *)
  let gates = ref [] in
  let produced = Array.make (2 * nn) false in
  let rec require id inverted =
    let o = (2 * id) + if inverted then 1 else 0 in
    if not produced.(o) then begin
      produced.(o) <- true;
      match choice.(o) with
      | Primary -> ()
      | Inverter ->
        require id (not inverted);
        gates :=
          {
            cell = Library.inverter;
            fanins = [| { node = id; inverted = not inverted } |];
            out = { node = id; inverted };
          }
          :: !gates
      | Match ->
        let v = variant.(o) and leaves = cut_leaves.(o) in
        let fanins =
          Array.init v.cell.Library.arity (fun i ->
              let leaf = leaves.(v.perm.(i)) in
              let inv = (v.phases lsr i) land 1 = 1 in
              require leaf inv;
              { node = leaf; inverted = inv })
        in
        gates := { cell = v.cell; fanins; out = { node = id; inverted } } :: !gates
    end
  in
  let primary_outputs =
    List.map
      (fun (name, l) ->
        let id = Aig.node_of_lit l and inv = Aig.is_complemented l in
        if id <> 0 then require id inv;
        (name, { node = id; inverted = inv }))
      (Aig.outputs g)
  in
  {
    gates = List.rev !gates;
    primary_inputs = List.map Aig.node_of_lit (Aig.inputs g);
    primary_outputs;
    source = g;
  }

let num_gates n = List.length n.gates
let area n =
  List.fold_left (fun acc (g : gate) -> acc +. g.cell.Library.area) 0.0 n.gates

(* Capacitive load on each produced signal. *)
let loads n =
  let load = Hashtbl.create 256 in
  let add s c =
    let prev = try Hashtbl.find load (s.node, s.inverted) with Not_found -> 0.0 in
    Hashtbl.replace load (s.node, s.inverted) (prev +. c)
  in
  List.iter
    (fun (g : gate) ->
      Array.iter (fun s -> add s g.cell.Library.input_cap) g.fanins)
    n.gates;
  List.iter (fun (_, s) -> add s 2.0) n.primary_outputs;
  load

let arrival_of arrival s =
  try Hashtbl.find arrival (s.node, s.inverted) with Not_found -> 0.0

(* Forward pass in topological order. The sum is associated as
   (worst + intrinsic) + load term; every reported delay uses it. *)
let arrivals ~load n =
  let arrival = Hashtbl.create 256 in
  List.iter
    (fun (g : gate) ->
      let worst =
        Array.fold_left (fun acc s -> max acc (arrival_of arrival s)) 0.0 g.fanins
      in
      let l =
        try Hashtbl.find load (g.out.node, g.out.inverted) with Not_found -> 0.0
      in
      let a =
        worst +. g.cell.Library.intrinsic +. (g.cell.Library.load_factor *. l)
      in
      Hashtbl.replace arrival (g.out.node, g.out.inverted) a)
    n.gates;
  arrival

let delay_with ~load n =
  let arrival = arrivals ~load n in
  List.fold_left
    (fun acc (_, s) -> max acc (arrival_of arrival s))
    0.0 n.primary_outputs

let delay n = delay_with ~load:(loads n) n

let check n =
  let g = n.source in
  let ni = Aig.num_inputs g in
  let st = Random.State.make [| 0x7a9; ni |] in
  let ok = ref true in
  for _ = 1 to 16 do
    let words = Array.init ni (fun _ -> Random.State.int64 st Int64.max_int) in
    let values = Aig.sim g words in
    (* Evaluate the mapped netlist on the same vectors. *)
    let sig_values = Hashtbl.create 256 in
    let value_of s =
      match Hashtbl.find_opt sig_values (s.node, s.inverted) with
      | Some w -> w
      | None ->
        (* Only primary inputs and constants may be read directly; an
           internal signal missing here means the cover is incomplete. *)
        if not (s.node = 0 || Aig.is_input g s.node) then ok := false;
        let w = values.(s.node) in
        if s.inverted then Int64.lognot w else w
    in
    List.iter
      (fun (g' : gate) ->
        let a = g'.cell.Library.arity in
        let out = ref 0L in
        for bitpos = 0 to 63 do
          let v = ref 0 in
          for i = 0 to a - 1 do
            let w = value_of g'.fanins.(i) in
            if Int64.logand (Int64.shift_right_logical w bitpos) 1L = 1L then
              v := !v lor (1 lsl i)
          done;
          if Logic.Tt.get_bit g'.cell.Library.func !v then
            out := Int64.logor !out (Int64.shift_left 1L bitpos)
        done;
        Hashtbl.replace sig_values (g'.out.node, g'.out.inverted) !out)
      n.gates;
    List.iter
      (fun (_, s) ->
        let mapped = value_of s in
        let golden =
          let w = values.(s.node) in
          if s.inverted then Int64.lognot w else w
        in
        if mapped <> golden then ok := false)
      n.primary_outputs
  done;
  !ok
