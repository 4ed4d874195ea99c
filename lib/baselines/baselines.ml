(* SIS script.delay / speed_up: algebraic restructuring with tree-height
   reduction. Realized as: cluster into a technology-independent network,
   refactor node functions (which performs the algebraic division of
   [speed_up]'s partial collapse), rebuild, and balance. Two passes, as
   the SIS scripts iterate a small fixed number of times. *)
let sis_like g =
  let pass g =
    let net = Network.of_aig ~k:8 g in
    let g = Network.to_aig net in
    Aig.Balance.run (Aig.Rewrite.run ~k:4 ~per_node:4 ~objective:`Delay g)
  in
  Aig.Sweep.cleanup (pass (pass g))

(* ABC resyn2rs: "b; rs -K 6; rw; rs -K 6 -N 2; rf; rs -K 8; b; ..." —
   an area-recovery script. Balancing appears only as a prelude to the
   area moves; rewriting accepts zero-cost and area-improving moves, so
   depth is incidental. Reproduced as area-objective rewriting and SAT
   sweeping without any delay-oriented pass at the end. *)
let abc_like g =
  (* Area moves are only kept when they actually recover area, like the
     zero-cost acceptance of the real script. *)
  let keep_smaller before after =
    if Aig.num_reachable_ands after <= Aig.num_reachable_ands before then after
    else before
  in
  let g0 = Aig.Sweep.cleanup g in
  let g1 = keep_smaller g0 (Aig.Balance.run g0) in
  let g2 = keep_smaller g1 (Aig.Rewrite.run ~k:5 ~per_node:6 ~objective:`Area g1) in
  let g3 = keep_smaller g2 (Aig.Sweep.sat_sweep g2) in
  let g4 = keep_smaller g3 (Aig.Rewrite.run ~k:4 ~per_node:6 ~objective:`Area g3) in
  Aig.Sweep.cleanup g4

(* Synopsys DC at high map/area effort: the strongest conventional
   baseline. Iterate delay-oriented rewriting + balancing to a fixpoint
   (bounded), then recover area with SAT sweeping and one zero-cost
   area pass that must not degrade depth. *)
let dc_like g =
  let g = Aig.Rewrite.delay_fixpoint g in
  let swept = Aig.Sweep.sat_sweep g in
  let swept = if Aig.depth swept <= Aig.depth g then swept else g in
  let area = Aig.Rewrite.run ~k:5 ~per_node:6 ~objective:`Area swept in
  if Aig.depth area <= Aig.depth swept then area else swept

let all = [ ("sis", sis_like); ("abc", abc_like); ("dc", dc_like) ]
let by_name name = List.assoc_opt name all
