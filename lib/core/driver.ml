type options = {
  cluster_k : int;
  max_rounds : int;
  max_decomp_levels : int;
  spcf_max_nodes : int;
  time_limit_s : float;
  use_exact_spcf : bool;
  guard_budget : Guard.Budget.t;
  deadline : Guard.Deadline.t option;
}

let default =
  {
    cluster_k = 6;
    max_rounds = 12;
    max_decomp_levels = 24;
    spcf_max_nodes = 24;
    time_limit_s = 90.0;
    use_exact_spcf = false;
    guard_budget = Guard.Budget.default;
    deadline = None;
  }

(* Outputs whose cone has a larger input support are not decomposed. *)
let max_cone_inputs = 64

(* Stop peeling an output once its BDD manager holds this many live
   nodes: a soft limit, far below Guard's hard node ceiling. *)
let bdd_node_limit = 12_000_000

let deadline_of options =
  match options.deadline with
  | Some d -> d
  | None -> Guard.Deadline.after options.time_limit_s

type stats = {
  rounds_run : int;
  outputs_decomposed : int;
  initial_depth : int;
  final_depth : int;
}

let log = Logs.Src.create "lookahead" ~doc:"lookahead synthesis driver"

module Log = (val Logs.src_log log)

(* --- observation ---------------------------------------------------- *)

(* Work counters are [Det] — identical at any -j for a deadline-free
   run (an expired time budget cuts work at a wall-clock instant, so
   deadline-cut runs are inherently schedule-dependent; the regression
   gate and the -j identity tests disable the time limit). *)
let m_rounds = Obs.counter "opt.rounds"
let m_outputs_decomposed = Obs.counter "opt.outputs_decomposed"
let m_windows = Obs.counter "opt.windows_marked"
let m_decomp_levels = Obs.histogram "opt.decomp_levels"
let m_skip_support = Obs.counter "opt.jobs_skipped_support"

let m_skip_deadline =
  Obs.counter ~stability:Obs.Sched "opt.jobs_skipped_deadline"

(* Degradation-ladder counters: one per rung descent, recording where
   each governed blowup landed. [Det] because every blowup that is not
   a real wall-clock expiry fires on a per-job tick count, which
   depends only on the job's input — never on scheduling. Real deadline
   cuts are inherently schedule-dependent and quarantined as [Sched]. *)
let rung_counter name = Obs.counter ("guard.rung." ^ name)
let m_rung_approx = rung_counter "approx_spcf"
let m_rung_shrink = rung_counter "shrink_window"
let m_rung_skip = rung_counter "skip_output"
let m_reconstruct_fallback = Obs.counter "guard.reconstruct_fallbacks"

let m_guard_deadline_cut =
  Obs.counter ~stability:Obs.Sched "guard.deadline_cuts"

let sp_round = Obs.span "opt.round"
let sp_decompose = Obs.span "opt.decompose"
let sp_spcf = Obs.span "opt.spcf"
let sp_window = Obs.span "opt.window"
let sp_secondary = Obs.span "opt.secondary"
let sp_reconstruct = Obs.span "opt.reconstruct"
let sp_balance = Obs.span "opt.balance"
let sp_polish = Obs.span "opt.polish"
let sp_sat_sweep = Obs.span "opt.sat_sweep"
let sp_final_cec = Obs.span "opt.final_cec"

(* Per-manager counters, recorded once per decomposition job (and by
   [Mfs]); each job's fresh manager does identical work at any -j, so
   the sums are [Det]. Misses are recorded explicitly so report
   validators can check hits + misses = lookups. *)
let m_bdd_managers = Obs.counter "bdd.managers"
let m_bdd_nodes = Obs.counter "bdd.nodes_allocated"
let g_bdd_peak = Obs.gauge "bdd.peak_live_nodes"
let m_bdd_unique_growths = Obs.counter "bdd.unique_growths"
let m_bdd_cache_growths = Obs.counter "bdd.cache_growths"
let m_ite_lookups = Obs.counter "bdd.ite_lookups"
let m_ite_hits = Obs.counter "bdd.ite_hits"
let m_ite_misses = Obs.counter "bdd.ite_misses"
let m_restrict_lookups = Obs.counter "bdd.restrict_lookups"
let m_restrict_hits = Obs.counter "bdd.restrict_hits"
let m_restrict_misses = Obs.counter "bdd.restrict_misses"
let m_compose_lookups = Obs.counter "bdd.compose_lookups"
let m_compose_hits = Obs.counter "bdd.compose_hits"
let m_compose_misses = Obs.counter "bdd.compose_misses"

let record_bdd_stats man =
  if Obs.enabled () then begin
    let s = Bdd.stats man in
    Obs.incr m_bdd_managers;
    Obs.add m_bdd_nodes s.Bdd.total_allocated;
    Obs.gauge_max g_bdd_peak s.Bdd.live_nodes;
    Obs.add m_bdd_unique_growths s.Bdd.unique_growths;
    Obs.add m_bdd_cache_growths
      (s.Bdd.ite_cache_growths + s.Bdd.restrict_cache_growths
     + s.Bdd.compose_cache_growths);
    Obs.add m_ite_lookups s.Bdd.ite_lookups;
    Obs.add m_ite_hits s.Bdd.ite_hits;
    Obs.add m_ite_misses (s.Bdd.ite_lookups - s.Bdd.ite_hits);
    Obs.add m_restrict_lookups s.Bdd.restrict_lookups;
    Obs.add m_restrict_hits s.Bdd.restrict_hits;
    Obs.add m_restrict_misses (s.Bdd.restrict_lookups - s.Bdd.restrict_hits);
    Obs.add m_compose_lookups s.Bdd.compose_lookups;
    Obs.add m_compose_hits s.Bdd.compose_hits;
    Obs.add m_compose_misses (s.Bdd.compose_lookups - s.Bdd.compose_hits)
  end

(* The exact SPCF is eligible only on narrow cones; the same predicate
   decides the degradation ladder's entry rung, so keep it shared. *)
let exact_spcf_eligible opts net =
  opts.use_exact_spcf && Network.num_inputs net <= 14

let spcf_of opts ~guard man net globals ~analysis ~levels ~out ~delta g
    ~aig_depth out_index =
  Obs.with_span sp_spcf @@ fun () ->
  if exact_spcf_eligible opts net then begin
    (* Exact floating-mode SPCF on the AIG (unit-delay threshold at the
       AIG depth), converted to a BDD over the primary inputs. *)
    let tt = Timing.Spcf.exact g ~out:out_index ~delta:aig_depth in
    Bdd.apply_tt man tt
      (Array.init (Network.num_inputs net) (fun i -> Bdd.var man i))
  end
  else
    Timing.Spcf.approx ~guard man net globals ~levels ~out ~delta
      ~max_nodes:opts.spcf_max_nodes ~analysis ()

(* Recursive multi-level decomposition of one output: peel a window off
   the current residue network, then recurse into the secondary circuit.
   Returns the decomposition levels (outermost first) and the final
   residue. *)
let decompose_output opts ~guard ~member man g out_index (o : Network.output)
    net0 analysis0 globals0 ~aig_depth =
  let oid = o.Network.node in
  let rec go net analysis globals depth_left ~stalls acc =
    (* Cancellation point at every decomposition level: a deadline that
       expires between secondary simplification and reconstruction must
       abandon the whole output (the caller falls back to the pre-edit
       cone), never hand a partially rewired residue to [merge]. *)
    Guard.check_deadline guard ~site:"driver.decompose";
    if depth_left = 0 || (Bdd.stats man).Bdd.live_nodes > bdd_node_limit then
      (List.rev acc, net)
    else begin
      let levels = Network.Analysis.levels analysis in
      let l_out = levels.(oid) in
      if l_out <= 1 then (List.rev acc, net)
      else begin
        let spcf =
          spcf_of opts ~guard man net globals ~analysis ~levels ~out:o
            ~delta:l_out g ~aig_depth out_index
        in
        if Bdd.is_false man spcf then (List.rev acc, net)
        else begin
          let spcf_count =
            Bdd.satcount man ~nvars:(Network.num_inputs net) spcf
          in
          let primary = Network.copy net in
          let primary_analysis = Network.Analysis.for_copy analysis primary in
          let outcome =
            Obs.with_span sp_window @@ fun () ->
            Reduce.run man ~analysis:primary_analysis ~globals ~spcf
              ~spcf_count primary ~out:o ~target:l_out
          in
          Obs.add m_windows (List.length outcome.Reduce.marked);
          if outcome.Reduce.marked = [] then begin
            Log.debug (fun m ->
                m "decompose %s: stop (no simplification at level %d)"
                  o.Network.name l_out);
            (List.rev acc, net)
          end
          else begin
            let sigma =
              List.fold_left
                (fun s (id, w) ->
                  Bdd.band man s (Network.Globals.tt_image man globals net id w))
                (Bdd.btrue man) outcome.Reduce.marked
            in
            Log.debug (fun m ->
                m "decompose %s: residue level %d, %d node(s) marked, sigma size %d"
                  o.Network.name l_out
                  (List.length outcome.Reduce.marked)
                  (Bdd.size man sigma));
            if Bdd.is_false man sigma then (List.rev acc, net)
            else begin
              let level =
                {
                  Reconstruct.residue = net;
                  residue_globals = globals;
                  primary;
                  windows = outcome.Reduce.marked;
                }
              in
              if Bdd.is_true man sigma then
                (* The simplified circuit is valid everywhere: the windows
                   are vacuous and the primary replaces the output. *)
                (List.rev (level :: acc), primary)
              else begin
                let secondary = Network.copy net in
                let sec_analysis =
                  Network.Analysis.for_copy analysis secondary
                in
                let edited =
                  Obs.with_span sp_secondary @@ fun () ->
                  Secondary.run man ~globals ~care:(Bdd.bnot man sigma)
                    secondary ~analysis:sec_analysis ~out:o
                in
                let sec_levels = Network.Analysis.levels sec_analysis in
                let residue_changed = edited <> [] in
                let stalled = sec_levels.(oid) >= l_out in
                if stalled && ((not residue_changed) || stalls >= 1) then begin
                  (* The residue stopped making progress: keep this level
                     and stop. A few stalled-but-changed iterations are
                     allowed — the next window often needs the fresh
                     don't-cares to cut through — but not unboundedly. *)
                  Log.debug (fun m ->
                      m "decompose %s: stop (residue stalled at level %d)"
                        o.Network.name sec_levels.(oid));
                  (List.rev (level :: acc), secondary)
                end
                else begin
                  (* Only the cones that contain an edit changed: reuse
                     every other output's global BDD verbatim. *)
                  let sec_globals =
                    Network.Globals.update ~guard ~member man globals secondary
                      ~dirty:edited
                      ~fanouts:(Network.Analysis.fanouts sec_analysis)
                  in
                  go secondary sec_analysis sec_globals (depth_left - 1)
                    ~stalls:(if stalled then stalls + 1 else 0)
                    (level :: acc)
                end
              end
            end
          end
        end
      end
    end
  in
  go net0 analysis0 globals0 opts.max_decomp_levels ~stalls:0 []

(* Result of the parallel per-output decomposition phase. The manager is
   carried to the (sequential) reconstruction phase: the decomposition's
   BDDs live in it, and they all die with it once the output is merged. *)
type decomposed = {
  man : Bdd.man;
  y_bdd : Bdd.t;
  pieces : Reconstruct.pieces;
}

(* One optimization round over all critical outputs. Returns the new
   graph and the number of outputs reconstructed. [deadline] makes the
   flow an anytime algorithm: outputs past the budget fall back to their
   original cones.

   Parallel structure: each output's decomposition is an independent job
   on the shared pool — per the lib/par isolation convention every
   worker reads its own [Network.copy] of the round's network ([~init])
   and every job builds a fresh BDD manager, so nothing mutable crosses
   domains. Reconstruction into the shared destination AIG stays
   sequential, in output order, which makes the round's result
   bit-identical to the -j 1 run (decomposition never reads [dst], and
   reconstruction decisions depend only on structural levels, not on
   what else has been strashed in). Jobs are forked in waves and merged
   future-by-future so at most a wave of completed-but-unmerged BDD
   managers is live at once. *)
let one_round opts ~deadline g =
  let net = Network.of_aig ~k:opts.cluster_k g in
  let levels = Network.Levels.compute net in
  let outs = Network.outputs net in
  let l_t =
    List.fold_left
      (fun acc (o : Network.output) -> max acc levels.(o.Network.node))
      0 outs
  in
  if l_t = 0 then (g, 0)
  else begin
    let old_levels = Aig.levels g in
    let old_outputs = Array.of_list (Aig.outputs g) in
    (* Destination graph shared by all outputs so common logic strashes. *)
    let dst = Aig.create () in
    let lev = Aig.Lev.create dst in
    let in_lits =
      Array.of_list
        (List.map
           (fun l ->
             Aig.add_input ?name:(Aig.input_name g (Aig.node_of_lit l)) dst)
           (Aig.inputs g))
    in
    let input_map i = in_lits.(i) in
    let copy_memo = Hashtbl.create 256 in
    let copy_original l =
      Aig.copy_cone ~dst ~src:g
        ~map:(fun id -> in_lits.(Aig.input_index g id))
        ~memo:copy_memo l
    in
    let decomposed = ref 0 in
    let aig_depth = Aig.depth g in
    (* [wstate] is per worker (lib/par [~init]): one network copy and
       one wiring/levels cache shared by every job the worker runs —
       cones, fanouts and support counts are computed once per worker,
       not once per output (the round never edits [wnet] itself). *)
    let decompose_job (wnet, wanalysis)
        (out_index, (o : Network.output), old_level) =
      if old_level < aig_depth then None
      else if Network.is_input wnet o.Network.node then None
      else if
        Network.Analysis.support_count wanalysis o.Network.node
        > max_cone_inputs
      then begin
        Obs.incr m_skip_support;
        Log.debug (fun m ->
            m "skip %s: cone support exceeds %d" o.Network.name
              max_cone_inputs);
        None
      end
      else if Guard.Deadline.expired deadline then begin
        Obs.incr m_skip_deadline;
        Log.debug (fun m ->
            m "skip %s: optimization time budget exhausted" o.Network.name);
        None
      end
      else begin
        Obs.with_span sp_decompose @@ fun () ->
        (* One guard context per output job, shared across every rung of
           the degradation ladder: tick counts carry over between rungs,
           so a single-shot injected fault fires once per job (the
           descent), not once per rung, and both budgets and injections
           land identically at any -j — the tick sequence depends only
           on the job's input. *)
        let guard = Guard.create ~deadline opts.guard_budget in
        (* The job only ever reads global functions of nodes inside the
           output's cone (SPCF walks, window images, secondary
           simplification and reconstruction are all cone-local), so it
           builds exactly that cone instead of the whole network. The
           cone is wiring-based and every copy shares the round's
           wiring, so one mask serves every decomposition level. *)
        let cone = Network.Analysis.cone wanalysis o.Network.node in
        let member = Array.make (Network.num_nodes wnet) false in
        List.iter (fun id -> member.(id) <- true) cone;
        let attempt rung =
          let opts_r =
            match rung with
            | `Exact -> opts
            | `Approx -> { opts with use_exact_spcf = false }
            | `Shrunk ->
              {
                opts with
                use_exact_spcf = false;
                spcf_max_nodes = max 4 (opts.spcf_max_nodes / 2);
                max_decomp_levels = max 1 (opts.max_decomp_levels / 2);
              }
          in
          (* A fresh BDD manager per attempt keeps memory bounded: all
             BDDs of one attempt die with its manager, and a blown-up
             attempt leaves no state behind for the next rung. *)
          let man = Bdd.create ~guard () in
          match
            let globals =
              Network.Globals.of_cluster ~guard man wnet ~nodes:cone
            in
            let decomp_levels, final_residue =
              decompose_output opts_r ~guard ~member man g out_index o wnet
                wanalysis globals ~aig_depth
            in
            (globals, decomp_levels, final_residue)
          with
          | globals, decomp_levels, final_residue ->
            Obs.observe m_decomp_levels (List.length decomp_levels);
            if decomp_levels = [] then begin
              (* Managers that never reach [merge] are still accounted
                 for. *)
              record_bdd_stats man;
              Ok None
            end
            else
              Ok
                (Some
                   {
                     man;
                     y_bdd = globals.(o.Network.node);
                     pieces =
                       {
                         Reconstruct.levels = decomp_levels;
                         final_residue;
                         out = o;
                       };
                   })
          | exception Guard.Blowup { resource; injected; site = _ } ->
            record_bdd_stats man;
            Error (resource, injected)
        in
        (* The deterministic degradation ladder: exact SPCF → approximate
           SPCF → smaller window/depth → skip the output. Time faults
           jump straight to the terminal rung — retrying cannot buy time
           back — with injected expiry counted [Det] (it fires on a tick
           count) and real expiry quarantined as [Sched]. *)
        let journal_degrade rung =
          (* Which output lands on which rung is a pure function of the
             job (budgets and injected tick counts are Det), so the
             payload is Det — the identity bench hashes it. *)
          Obs.Journal.record ~kind:"guard.degrade"
            ~det:
              (Obs.Json.Obj
                 [ ("rung", Obs.Json.String rung);
                   ("output", Obs.Json.String o.Network.name) ])
            ()
        in
        let rec ladder rung =
          match attempt rung with
          | Ok r -> r
          | Error (Guard.Time, injected) ->
            if injected then begin
              Obs.incr m_rung_skip;
              journal_degrade "skip_output"
            end
            else begin
              Obs.incr m_guard_deadline_cut;
              Obs.Journal.record ~kind:"guard.deadline_cut"
                ~sched:
                  (Obs.Json.Obj
                     [ ("output", Obs.Json.String o.Network.name) ])
                ();
              Log.debug (fun m ->
                  m "skip %s: deadline expired mid-decomposition"
                    o.Network.name)
            end;
            None
          | Error ((Guard.Bdd_nodes | Guard.Sat_conflicts), _) -> (
            match rung with
            | `Exact ->
              Obs.incr m_rung_approx;
              journal_degrade "approx_spcf";
              ladder `Approx
            | `Approx ->
              Obs.incr m_rung_shrink;
              journal_degrade "shrink_window";
              ladder `Shrunk
            | `Shrunk ->
              Obs.incr m_rung_skip;
              journal_degrade "skip_output";
              None)
        in
        ladder (if exact_spcf_eligible opts wnet then `Exact else `Approx)
      end
    in
    let merge result (out_index, (o : Network.output), old_level) =
      Obs.with_span sp_reconstruct @@ fun () ->
      let _, old_lit = old_outputs.(out_index) in
      let fallback () = copy_original old_lit in
      let lit =
        match result with
        | None -> fallback ()
        | Some { man; y_bdd; pieces } -> (
          match Reconstruct.build man ~y_bdd dst lev ~input_map pieces with
          | Some l when Aig.Lev.level lev l < old_level ->
            incr decomposed;
            Log.debug (fun m ->
                m "output %s: %d decomposition level(s), level %d -> %d"
                  o.Network.name
                  (List.length pieces.Reconstruct.levels)
                  old_level (Aig.Lev.level lev l));
            l
          | Some l ->
            Log.debug (fun m ->
                m "output %s: reconstruction level %d >= old %d, rejected"
                  o.Network.name (Aig.Lev.level lev l) old_level);
            fallback ()
          | None ->
            Log.debug (fun m ->
                m "output %s: no valid reconstruction form" o.Network.name);
            fallback ()
          | exception Guard.Blowup _ ->
            (* Reconstruction keeps ticking the job's manager, so a
               budget crossed (or fault injected) this late lands here:
               drop the half-built form and restore the pre-edit cone.
               [dst] is unharmed — [Reconstruct.build] only adds nodes,
               and unreferenced ones die in the final cleanup. *)
            Obs.incr m_reconstruct_fallback;
            Log.debug (fun m ->
                m "output %s: blowup during reconstruction, restored"
                  o.Network.name);
            fallback ())
      in
      (* After [Reconstruct.build] so its manager traffic is included;
         [merge] runs sequentially in submission order, so the sums
         stay deterministic. *)
      (match result with
      | Some { man; _ } -> record_bdd_stats man
      | None -> ());
      Aig.add_output dst o.Network.name lit
    in
    let jobs =
      List.mapi
        (fun out_index (o : Network.output) ->
          let _, old_lit = old_outputs.(out_index) in
          (out_index, o, old_levels.(Aig.node_of_lit old_lit)))
        outs
    in
    (* Manager-affine fan-out: each job's fresh BDD manager is touched
       by one worker until its future is merged on this domain, and the
       wave bound caps completed-but-unmerged managers (Par.map_merge
       generalizes the hand-rolled wave loop this replaced). *)
    Par.map_merge ~pool:(Par.shared ())
      ~init:(fun () ->
        let w = Network.copy net in
        (w, Network.Analysis.create w))
      ~f:decompose_job
      ~merge:(fun () job result -> merge result job)
      () jobs;
    (Aig.cleanup dst, !decomposed)
  end

let balance g = Obs.with_span sp_balance (fun () -> Aig.Balance.run g)

let optimize_with_stats ?(options = default) g0 =
  let g = balance g0 in
  let initial_depth = Aig.depth g0 in
  (* One monotonic deadline shared by the whole run — every worker of
     every round checks the same absolute instant, so the time budget
     means the same thing at -j 1 and -j 8 and is immune to wall-clock
     adjustments. *)
  let deadline = deadline_of options in
  (* Run-level guard context for the sequential finishing passes (SAT
     sweep, final CEC); per-output decomposition jobs get their own.
     Deliberately deadline-free — the finishing passes always run to
     completion, like the existing flow. *)
  let run_guard = Guard.create options.guard_budget in
  (* Conventional delay-oriented cleanup (balance + cut rewriting to a
     bounded fixpoint). The paper's technique complements standard logic
     optimization — it was run inside ABC on conventionally optimized
     circuits — so the driver applies the same polish before and after
     the decomposition rounds. A polish ends on a step it rejects; when
     the rounds after it change nothing, the next polish starts on the
     very graph that step was computed from, so the last step is kept
     with its input and reused when the input is the same graph. *)
  let last_step = ref None in
  let step g =
    match !last_step with
    | Some (src, g') when src == g -> g'
    | _ ->
      let g' = Aig.Rewrite.delay_step g in
      last_step := Some (g, g');
      g'
  in
  let polish g =
    Obs.with_span sp_polish (fun () -> Aig.Rewrite.fixpoint ~step g)
  in
  (* Inner loop: decomposition rounds while the depth improves. *)
  let rec rounds i g touched =
    if i >= options.max_rounds || Guard.Deadline.expired deadline then
      (g, i, touched)
    else begin
      let g', n =
        Obs.with_span sp_round (fun () -> one_round options ~deadline g)
      in
      Obs.incr m_rounds;
      Obs.add m_outputs_decomposed n;
      let g' = balance g' in
      Log.debug (fun m ->
          m "round %d: depth %d -> %d (%d output(s) reconstructed)" (i + 1)
            (Aig.depth g) (Aig.depth g') n);
      if Aig.depth g' < Aig.depth g then rounds (i + 1) g' (touched + n)
      else (g, i, touched)
    end
  in
  (* Outer loop: alternate decomposition with conventional delay
     rewriting. Decomposition must come first — rewriting can obscure the
     regular structure the window search exploits. *)
  let input = g and polished_input = ref None in
  let rec outer budget g rr touched =
    let g1, r, n = rounds 0 g 0 in
    let g2 = polish g1 in
    (* Rounds that leave the balanced input itself have just polished
       it: keep that polish as [conventional] below. *)
    if g1 == input then polished_input := Some g2;
    let g' = if Aig.depth g2 <= Aig.depth g1 then g2 else g1 in
    if budget > 0 && Aig.depth g' < Aig.depth g
       && not (Guard.Deadline.expired deadline)
    then outer (budget - 1) g' (rr + r) (touched + n)
    else (g', rr + r, touched + n)
  in
  let best, rounds_run, outputs_decomposed = outer 3 g 0 0 in
  (* Never lose to plain conventional rewriting: when no useful
     decomposition exists, fall back to the polished circuit. *)
  let conventional =
    match !polished_input with Some p -> p | None -> polish g
  in
  let best =
    if
      Aig.depth conventional < Aig.depth best
      || (Aig.depth conventional = Aig.depth best
          && Aig.num_reachable_ands conventional < Aig.num_reachable_ands best)
    then conventional
    else best
  in
  let best =
    Obs.with_span sp_sat_sweep (fun () ->
        Aig.Sweep.sat_sweep ~guard:run_guard best)
  in
  (* The paper performs an equivalence check after optimization; a failed
     check would indicate a bug, so enforce it. The guard can only
     reduce the check's merge effort, never its soundness. *)
  (match
     Obs.with_span sp_final_cec (fun () ->
         Aig.Cec.check ~guard:run_guard g0 best)
   with
   | Aig.Cec.Equivalent -> ()
   | Aig.Cec.Counterexample _ ->
     invalid_arg "Lookahead.Driver.optimize: internal equivalence failure");
  ( best,
    {
      rounds_run;
      outputs_decomposed;
      initial_depth;
      final_depth = Aig.depth best;
    } )

let optimize ?options g = fst (optimize_with_stats ?options g)
