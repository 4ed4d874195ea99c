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

(* Match table: truth table (over the cut leaves) -> variants realizing
   exactly that function. Built once. *)
let match_table =
  lazy
    (let table = Logic.Tt.Tbl.create 4096 in
     List.iter
       (fun (cell : Library.cell) ->
         let a = cell.Library.arity in
         let perms = permutations (List.init a Fun.id) in
         List.iter
           (fun perm ->
             let perm = Array.of_list perm in
             for phases = 0 to (1 lsl a) - 1 do
               (* Function over the leaves: leaf j feeds the cell inputs i
                  with perm.(i) = j, inverted per phase bit. *)
               let f =
                 Logic.Tt.of_fun a (fun m ->
                     let v = ref 0 in
                     for i = 0 to a - 1 do
                       let leaf_bit = (m lsr perm.(i)) land 1 = 1 in
                       let bit = leaf_bit <> ((phases lsr i) land 1 = 1) in
                       if bit then v := !v lor (1 lsl i)
                     done;
                     Logic.Tt.get_bit cell.Library.func !v)
               in
               let prev = try Logic.Tt.Tbl.find table f with Not_found -> [] in
               Logic.Tt.Tbl.replace table f ({ cell; perm; phases } :: prev)
             done)
           perms)
       Library.cells;
     table)

(* Forced by the first [map] call rather than at start-up, which would
   charge every process ~5 ms before its first optimizer call. Portfolio
   arms map from several domains at once, and a domain forcing a lazy
   value that another domain is still computing raises
   [CamlinternalLazy.Undefined], so the force runs under a lock. Once
   built the table is only read. *)
let match_table_lock = Mutex.create ()

(* Chosen implementation of one (node, phase). *)
type choice =
  | Primary  (** primary input or constant, positive phase *)
  | Inverter  (** realized from the opposite phase through an INV *)
  | Match of variant * int array  (** variant + cut leaves *)

let inv_delay = Library.inverter.Library.intrinsic

let map g =
  let table =
    Mutex.protect match_table_lock (fun () -> Lazy.force match_table)
  in
  let matches_for tt = try Logic.Tt.Tbl.find table tt with Not_found -> [] in
  let nn = Aig.num_nodes g in
  let cuts = Aig.Cuts.enumerate g ~k:4 ~per_node:6 in
  let arrival = Array.make (2 * nn) infinity in
  let choice = Array.make (2 * nn) Primary in
  let idx id inverted = (2 * id) + if inverted then 1 else 0 in
  arrival.(idx 0 false) <- 0.0;
  arrival.(idx 0 true) <- 0.0;
  choice.(idx 0 true) <- Inverter;
  List.iter
    (fun l ->
      let id = Aig.node_of_lit l in
      arrival.(idx id false) <- 0.0;
      arrival.(idx id true) <- inv_delay;
      choice.(idx id true) <- Inverter)
    (Aig.inputs g);
  for id = 1 to nn - 1 do
    if Aig.is_and g id then begin
      List.iter
        (fun c ->
          let leaves = Aig.Cuts.leaves c in
          if Array.length leaves >= 1 && leaves <> [| id |] then begin
            let try_phase tt inverted =
              List.iter
                (fun (v : variant) ->
                  let worst = ref 0.0 in
                  Array.iteri
                    (fun i leaf_pos ->
                      let leaf = leaves.(leaf_pos) in
                      let inv = (v.phases lsr i) land 1 = 1 in
                      let a = arrival.(idx leaf inv) in
                      if a > !worst then worst := a)
                    v.perm;
                  let a = !worst +. v.cell.Library.intrinsic in
                  if a < arrival.(idx id inverted) then begin
                    arrival.(idx id inverted) <- a;
                    choice.(idx id inverted) <- Match (v, leaves)
                  end)
                (matches_for tt)
            in
            let tt = Aig.Cuts.tt c in
            try_phase tt false;
            try_phase (Logic.Tt.lnot tt) true
          end)
        cuts.(id);
      (* Phase relaxation through inverters, both directions. *)
      let relax a b =
        if arrival.(a) +. inv_delay < arrival.(b) then begin
          arrival.(b) <- arrival.(a) +. inv_delay;
          choice.(b) <- Inverter
        end
      in
      relax (idx id false) (idx id true);
      relax (idx id true) (idx id false)
    end
  done;
  (* Extract the cover from the outputs. *)
  let gates = ref [] in
  let produced = Hashtbl.create 256 in
  let rec require id inverted =
    if not (Hashtbl.mem produced (id, inverted)) then begin
      Hashtbl.replace produced (id, inverted) ();
      match choice.(idx id inverted) with
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
      | Match (v, leaves) ->
        let fanins =
          Array.map
            (fun i ->
              let leaf = leaves.(v.perm.(i)) in
              let inv = (v.phases lsr i) land 1 = 1 in
              require leaf inv;
              { node = leaf; inverted = inv })
            (Array.init v.cell.Library.arity Fun.id)
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

let delay n =
  let arrival = arrivals ~load:(loads n) n in
  List.fold_left
    (fun acc (_, s) -> max acc (arrival_of arrival s))
    0.0 n.primary_outputs

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
