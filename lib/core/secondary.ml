(* Local don't-cares: the minterms of the node's fanin space whose
   global image misses the care set. One BDD product per minterm and a
   disjointness test against the care set, which builds no node; the
   polarity choice below is the only other step. *)
let resimplify man ~globals ~care ~levels ?(by_literals = false) net id =
  let nd = Network.node net id in
  let k = Array.length nd.Network.fanins in
  let dc = ref (Logic.Tt.const_false k) in
  for m = 0 to (1 lsl k) - 1 do
    let image = Network.Globals.minterm_image man globals net id m in
    if Bdd.disjoint man image care then
      dc := Logic.Tt.lor_ !dc (Logic.Tt.of_minterms k [ m ])
  done;
  if Logic.Tt.is_const_false !dc then None
  else begin
    let on = nd.Network.func in
    let lower = Logic.Tt.land_ on (Logic.Tt.lnot !dc) in
    let upper = Logic.Tt.lor_ on !dc in
    let fanin_level i = levels.(nd.Network.fanins.(i)) in
    let cost sop =
      ( Network.Levels.sop_depth sop ~fanin_level,
        if by_literals then Logic.Sop.num_literals sop else 0 )
    in
    (* Pick the cheaper polarity of the minimized cover. *)
    let pos = Logic.Minimize.isop ~lower ~upper in
    let neg =
      Logic.Minimize.isop ~lower:(Logic.Tt.lnot upper)
        ~upper:(Logic.Tt.lnot lower)
    in
    let func =
      if cost pos <= cost neg then Logic.Sop.to_tt pos
      else Logic.Tt.lnot (Logic.Sop.to_tt neg)
    in
    if Logic.Tt.equal func on then None else Some func
  end

let run man ~globals ~care net ~analysis ~out =
  let oid = out.Network.node in
  let cone = Network.Analysis.cone analysis oid in
  (* Levels are deliberately read once, before any edit: each node is
     re-minimized against the level landscape of the unedited network
     (matching the from-scratch behaviour this pass always had). The
     copy decouples the snapshot from the analysis engine's in-place
     repair. *)
  let levels = Array.copy (Network.Analysis.levels analysis) in
  let edited = ref [] in
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let k = Array.length (Network.node net id).Network.fanins in
        if k > 0 && k <= 10 then
          match resimplify man ~globals ~care ~levels net id with
          | Some func ->
            Network.set_func net id func;
            Network.Analysis.invalidate analysis id;
            edited := id :: !edited
          | None -> ()
      end)
    cone;
  List.rev !edited
