let sim_rounds = 32

let dynamic_mw n =
  let g = n.Mapper.source in
  let ni = Aig.num_inputs g in
  let nn = Aig.num_nodes g in
  let ones = Array.make nn 0 in
  let st = Random.State.make [| 0x9043 land max_int; nn |] in
  for _ = 1 to sim_rounds do
    let words = Array.init ni (fun _ -> Random.State.int64 st Int64.max_int) in
    let values = Aig.sim g words in
    for id = 0 to nn - 1 do
      let rec popcount w acc =
        if w = 0L then acc
        else popcount (Int64.logand w (Int64.sub w 1L)) (acc + 1)
      in
      ones.(id) <- ones.(id) + popcount values.(id) 0
    done
  done;
  let total_bits = float_of_int (64 * sim_rounds) in
  let probability id = float_of_int ones.(id) /. total_bits in
  (* Load per produced signal, reusing the mapper's model: gate input pins
     plus 2 fF on each primary output. *)
  let load = Hashtbl.create 256 in
  let add (s : Mapper.signal) c =
    let key = (s.Mapper.node, s.Mapper.inverted) in
    let prev = try Hashtbl.find load key with Not_found -> 0.0 in
    Hashtbl.replace load key (prev +. c)
  in
  List.iter
    (fun (gate : Mapper.gate) ->
      Array.iter (fun s -> add s gate.Mapper.cell.Library.input_cap) gate.Mapper.fanins)
    n.Mapper.gates;
  List.iter (fun (_, s) -> add s 2.0) n.Mapper.primary_outputs;
  let vdd2 = Library.vdd *. Library.vdd in
  let watts =
    Hashtbl.fold
      (fun (node, _) cap acc ->
        let p = probability node in
        let activity = 2.0 *. p *. (1.0 -. p) in
        acc +. (0.5 *. activity *. (cap *. 1e-15) *. vdd2 *. Library.clock_hz))
      load 0.0
  in
  watts *. 1e3
