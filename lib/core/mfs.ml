let sp_mfs = Obs.span "opt.mfs"

(* [Det]: the pass is sequential, so whether its guard blows up depends
   only on the input circuit (or an injected fault's tick count). *)
let m_mfs_degraded = Obs.counter "guard.mfs_degraded"

let simplify_network ~guard man net =
  let globals = Network.Globals.of_net ~guard man net in
  let fanouts = Network.fanouts net in
  let levels = Network.Levels.compute net in
  let outs = Network.outputs net in
  List.iter
    (fun id ->
      if not (Network.is_input net id) then begin
        let k = Array.length (Network.node net id).Network.fanins in
        if k > 0 && k <= 8 then begin
          (* Observability: where some output sees the node. *)
          let observable =
            List.fold_left
              (fun acc (o : Network.output) ->
                Bdd.bor man acc
                  (Timing.Spcf.boolean_difference man net globals ~wrt:id
                     ~out:o))
              (Bdd.bfalse man) outs
          in
          (* Satisfiability dc: image empty. Observability dc: image
             never observable. *)
          match
            Secondary.resimplify man ~globals ~care:observable ~levels
              ~by_literals:true net id
          with
          | Some func ->
            Network.set_func net id func;
            (* Later nodes must see the updated global functions: a
               change inside the ODC of the *original* network could
               otherwise compose unsoundly with a second change. Only
               the edited node's transitive fanout can differ. *)
            let fresh =
              Network.Globals.update ~guard man globals net ~dirty:[ id ]
                ~fanouts
            in
            Array.blit fresh 0 globals 0 (Array.length globals)
          | None -> ()
        end
      end)
    (Network.topo_order net)

let run ?(k = 6) g =
  Obs.with_span sp_mfs @@ fun () ->
  let net = Network.of_aig ~k g in
  (* Deadline-free guard: the pass is an optional polish, so the
     recovery for any blowup (real or injected) is simply to return the
     input unchanged — [net] is discarded whole, never half-applied. *)
  let guard = Guard.create Guard.Budget.default in
  let man = Bdd.create ~guard () in
  match simplify_network ~guard man net with
  | () -> (
    Driver.record_bdd_stats man;
    let out = Aig.cleanup (Network.to_aig net) in
    match Aig.Cec.check g out with
    | Aig.Cec.Equivalent -> out
    | Aig.Cec.Counterexample _ ->
      invalid_arg "Lookahead.Mfs.run: internal equivalence failure")
  | exception Guard.Blowup _ ->
    Driver.record_bdd_stats man;
    Obs.incr m_mfs_degraded;
    g
