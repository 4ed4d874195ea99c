let sim_rounds = 32

(* 64-bit words of a [Bytes] buffer, kept unboxed by the native compiler
   between these primitives. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Signal probabilities from random simulation of the source AIG, one
   word per node in [values]. The draws are part of every reported
   power figure: one [Random.State.int64] word per input, in input
   order, round by round. *)
let dynamic_mw_with ~load n =
  let g = n.Mapper.source in
  let nn = Aig.num_nodes g in
  let input_ids = Array.of_list (List.map Aig.node_of_lit (Aig.inputs g)) in
  let ands = Array.of_list (List.filter (Aig.is_and g) (List.init nn Fun.id)) in
  let lit0 = Array.map (Aig.fanin0 g) ands and lit1 = Array.map (Aig.fanin1 g) ands in
  let ones = Array.make nn 0 in
  let values = Bytes.make (8 * nn) '\000' in
  let st = Random.State.make [| 0x9043 land max_int; nn |] in
  for _ = 1 to sim_rounds do
    Array.iter
      (fun id -> set64 values (8 * id) (Random.State.int64 st Int64.max_int))
      input_ids;
    for i = 0 to Array.length ands - 1 do
      let f0 = lit0.(i) and f1 = lit1.(i) in
      set64 values
        (8 * ands.(i))
        (Int64.logand
           (Int64.logxor (get64 values (8 * (f0 lsr 1))) (Int64.of_int (-(f0 land 1))))
           (Int64.logxor (get64 values (8 * (f1 lsr 1))) (Int64.of_int (-(f1 land 1)))))
    done;
    (* Add each word's set bits (a SWAR popcount, written out so that
       the word stays unboxed). *)
    for id = 0 to nn - 1 do
      let open Int64 in
      let w = get64 values (8 * id) in
      let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
      let w =
        add (logand w 0x3333333333333333L)
          (logand (shift_right_logical w 2) 0x3333333333333333L)
      in
      let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
      ones.(id) <- ones.(id) + to_int (shift_right_logical (mul w 0x0101010101010101L) 56)
    done
  done;
  let total_bits = float_of_int (64 * sim_rounds) in
  let probability id = float_of_int ones.(id) /. total_bits in
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

let dynamic_mw n = dynamic_mw_with ~load:(Mapper.loads n) n
