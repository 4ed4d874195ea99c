type verdict = Equivalent | Counterexample of bool array

type stats = {
  sim_rounds : int;
  sat_calls : int;
  merges : int;
  budget_exhausted : int;
}

(* Running totals for one [check] or [sweep]. *)
type acc = {
  mutable a_sim : int;
  mutable a_sat : int;
  mutable a_merge : int;
  mutable a_budget : int;
}

let m_checks = Obs.counter "cec.checks"
let m_sim_rounds = Obs.counter "cec.sim_rounds"
let m_sat_calls = Obs.counter "cec.sat_calls"
let m_merges = Obs.counter "cec.fraig_merges"
let m_budget = Obs.counter "cec.budget_exhausted"
let m_sim_refuted = Obs.counter "cec.sim_refutations"
let m_sweep_sat_calls = Obs.counter "sweep.sat_calls"
let m_sweep_merges = Obs.counter "sweep.merges"
let m_sat_conflicts = Obs.counter "sat.conflicts"
let m_sat_decisions = Obs.counter "sat.decisions"
let m_sat_propagations = Obs.counter "sat.propagations"
let m_sat_restarts = Obs.counter "sat.restarts"
let m_sat_reductions = Obs.counter "sat.reductions"
let m_sat_learnts_deleted = Obs.counter "sat.learnts_deleted"
let m_sat_minimized = Obs.counter "sat.minimized_lits"
let m_sat_vivified = Obs.counter "sat.vivified_lits"
let g_sat_learnts_live = Obs.gauge "sat.learnts_live"
let g_sat_arena_peak = Obs.gauge "sat.arena_peak_words"
let sp_check = Obs.span "cec.check"

(* Each [fraig] run uses a fresh solver, so its cumulative stats are
   this unit's deltas; counters add across units, gauges keep the
   per-run peak. All Det-classified: the solver is single-threaded and
   free of randomness, so these are identical at any [-j]. *)
let record_solver_stats solver =
  let s = Sat.Solver.stats solver in
  Obs.add m_sat_conflicts s.Sat.Solver.conflicts;
  Obs.add m_sat_decisions s.Sat.Solver.decisions;
  Obs.add m_sat_propagations s.Sat.Solver.propagations;
  Obs.add m_sat_restarts s.Sat.Solver.restarts;
  Obs.add m_sat_reductions s.Sat.Solver.reductions;
  Obs.add m_sat_learnts_deleted s.Sat.Solver.learnts_deleted;
  Obs.add m_sat_minimized s.Sat.Solver.minimized_lits;
  Obs.add m_sat_vivified s.Sat.Solver.vivified_lits;
  Obs.gauge_max g_sat_learnts_live s.Sat.Solver.learnts_live;
  Obs.gauge_max g_sat_arena_peak s.Sat.Solver.arena_peak_words

(* Build a miter graph: shared inputs, one XOR literal per output pair.
   Strashing makes structurally identical cones collapse, so many pairs
   reduce to constant false without any SAT work. *)
let miter a b =
  assert (Graph.num_inputs a = Graph.num_inputs b);
  let la = Graph.outputs a and lb = Graph.outputs b in
  assert (List.length la = List.length lb);
  let g = Graph.create () in
  let ins =
    Array.init (Graph.num_inputs a) (fun i ->
        Graph.add_input ~name:(Printf.sprintf "i%d" i) g)
  in
  let map_for src id = ins.(Graph.input_index src id) in
  let memo_a = Hashtbl.create 256 and memo_b = Hashtbl.create 256 in
  let diffs =
    List.map2
      (fun (_, oa) (_, ob) ->
        let ca = Graph.copy_cone ~dst:g ~src:a ~map:(map_for a) ~memo:memo_a oa in
        let cb = Graph.copy_cone ~dst:g ~src:b ~map:(map_for b) ~memo:memo_b ob in
        Graph.bxor g ca cb)
      la lb
  in
  (g, diffs)

(* Random simulation on the miter: any set bit of any diff word is a
   counterexample. The stimuli are drawn sequentially up front (the RNG
   stream order is part of the deterministic contract) and the rounds
   simulate on the domain pool — each round reads the frozen miter and
   writes only its own value array. Verdicts are scanned in round order,
   so the counterexample found is the one the sequential loop reports. *)
let random_words st ni =
  Array.init ni (fun _ -> Random.State.int64 st Int64.max_int)

let random_counterexample g diffs rounds =
  let ni = Graph.num_inputs g in
  let st = Random.State.make [| 0x5eed; ni |] in
  let stimuli = List.init rounds (fun _ -> random_words st ni) in
  let sims = Par.map_list (fun words -> (words, Graph.sim g words)) stimuli in
  let cex_of (words, values) =
    let value_of l =
      let w = values.(Graph.node_of_lit l) in
      if Graph.is_complemented l then Int64.lognot w else w
    in
    let hit =
      List.fold_left (fun acc d -> Int64.logor acc (value_of d)) 0L diffs
    in
    if hit = 0L then None
    else begin
      let rec bit i =
        if Int64.logand (Int64.shift_right_logical hit i) 1L = 1L then i
        else bit (i + 1)
      in
      let k = bit 0 in
      Some
        (Array.init ni (fun i ->
             Int64.logand (Int64.shift_right_logical words.(i) k) 1L = 1L))
    end
  in
  List.find_map cex_of sims

(* The fraig engine, shared by [check] (on the miter) and [sweep]:
   rebuild the nodes of [g] in topological order into a fresh strashed
   graph, reading nodes proven equal through one image (the
   representative rule below), so downstream structure collapses —
   ultimately each miter diff to constant false. Simulation signatures propose candidates; a shared
   incremental solver proves or refutes them, and every refutation
   contributes its model as a fresh simulation pattern that sharpens
   the signatures. XOR-heavy miters (the error-correcting benchmarks)
   are intractable for monolithic CDCL but fall apart this way: every
   proof is local to two small structurally-close cones. Only the cones
   of [roots] are rebuilt, so every image node was built for a node a
   root reads and the rebuilt cones have no more ANDs than [g]'s. [k]
   reads the result while the solver is live: it gets the rebuilt
   graph, the image of a source literal in it, and an unbounded,
   unguarded query for a model that sets an image literal true. *)
let fraig ~guard acc g roots k =
  let nn = Graph.num_nodes g in
  let ni = Graph.num_inputs g in
  let live = Array.init nn (fun id -> not (Graph.is_and g id)) in
  List.iter (fun l -> live.(Graph.node_of_lit l) <- true) roots;
  for id = nn - 1 downto 1 do
    if live.(id) && Graph.is_and g id then begin
      let f0, f1 = Graph.fanins g id in
      live.(Graph.node_of_lit f0) <- true;
      live.(Graph.node_of_lit f1) <- true
    end
  done;
  let st = Random.State.make [| 0xf4a16; nn |] in
  (* Simulation rounds, newest first; each is one per-node word array.
     The eight seed rounds are independent full-graph simulations of the
     frozen graph, so they run on the domain pool; results land in the
     same list order as a sequential loop, keeping the signature
     classes (and hence every downstream merge and SAT query)
     bit-identical at any -j. Later counterexample rounds stay
     sequential — each depends on the previous solver refutation. *)
  let rounds = ref [] in
  let add_round values =
    acc.a_sim <- acc.a_sim + 1;
    rounds := values :: !rounds
  in
  List.init 8 (fun _ -> random_words st ni)
  |> Par.map_list (Graph.sim g)
  |> List.iter add_round;
  (* A refuting model becomes bit 0 of a fresh round; the remaining 63
     bits stay random so every refutation also buys generic coverage. *)
  let add_cex_round pat =
    let bit0 i r =
      Int64.logor (Int64.logand r (-2L)) (if pat.(i) then 1L else 0L)
    in
    add_round (Graph.sim g (Array.mapi bit0 (random_words st ni)))
  in
  let equal_sig a b =
    List.for_all (fun r -> Int64.equal r.(a) r.(b)) !rounds
  in
  let compl_sig a b =
    List.for_all (fun r -> Int64.equal r.(a) (Int64.lognot r.(b))) !rounds
  in
  (* Candidate classes, bucketed by polarity-canonical signature over the
     seed rounds. Buckets are over-approximations: the candidate scan
     re-checks signatures against all current rounds, so refinement after
     a refutation is free — no bucket splitting. *)
  let base = Array.of_list (List.rev !rounds) in
  let bucket_key id =
    let flip = Int64.logand base.(0).(id) 1L = 1L in
    let b = Buffer.create (8 * Array.length base) in
    Array.iter
      (fun r ->
        Buffer.add_int64_le b (if flip then Int64.lognot r.(id) else r.(id)))
      base;
    Buffer.contents b
  in
  let buckets : (string, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  let bucket_of id =
    let key = bucket_key id in
    match Hashtbl.find_opt buckets key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add buckets key r;
      r
  in
  (* Constant and inputs included: a node proven constant or equal to an
     input merges just the same. *)
  for id = 0 to nn - 1 do
    if live.(id) then begin
      let b = bucket_of id in
      b := id :: !b (* descending id order *)
    end
  done;
  (* Image of each node in a fresh strashed graph, and the unit-delay
     level of each image node (at most one new node per source node). *)
  let dst = Graph.create () in
  let image = Array.make nn Graph.const_false in
  List.iter
    (fun l ->
      let id = Graph.node_of_lit l in
      image.(id) <- Graph.add_input ?name:(Graph.input_name g id) dst)
    (Graph.inputs g);
  let dlev = Array.make nn 0 in
  let level l = dlev.(Graph.node_of_lit l) in
  let image_of_lit l =
    let b = image.(Graph.node_of_lit l) in
    if Graph.is_complemented l then Graph.bnot b else b
  in
  (* Lazy Tseitin encoding of [dst] into one shared incremental solver. *)
  let solver = Sat.Solver.create () in
  let var_of : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let rec sat_var id =
    match Hashtbl.find_opt var_of id with
    | Some v -> v
    | None ->
      let v = Sat.Solver.new_var solver in
      Hashtbl.add var_of id v;
      if id = 0 then Sat.Solver.add_clause solver [ -v ]
      else if Graph.is_and dst id then begin
        let f0, f1 = Graph.fanins dst id in
        let a = sat_lit f0 and b = sat_lit f1 in
        Sat.Solver.add_clause solver [ -v; a ];
        Sat.Solver.add_clause solver [ -v; b ];
        Sat.Solver.add_clause solver [ v; -a; -b ]
      end;
      v
  and sat_lit l =
    let v = sat_var (Graph.node_of_lit l) in
    if Graph.is_complemented l then -v else v
  in
  let cex_pattern () =
    Array.of_list
      (List.map
         (fun l ->
           match Hashtbl.find_opt var_of (Graph.node_of_lit l) with
           | Some v -> Sat.Solver.value solver v
           | None -> false)
         (Graph.inputs dst))
  in
  (* One batched miter query per candidate, bounded at 4000 conflicts
     and governed by [guard]: a fresh selector [t] implies the
     disequality ([t -> x <> y], two clauses), and the query assumes
     [t]. Unsat under [t] proves [x == y]; Sat hands back a refuting
     model. Compared to the two directional queries ([x && not y], then
     [not x && y]) this derives the shared propagations once, and a
     retired selector is free: unasserted, its clauses are satisfied by
     the saved-phase default [t = false]. *)
  let prove_equal x y =
    let lx = sat_lit x and ly = sat_lit y in
    let t = Sat.Solver.new_var solver in
    Sat.Solver.add_clause solver [ -t; lx; ly ];
    Sat.Solver.add_clause solver [ -t; -lx; -ly ];
    acc.a_sat <- acc.a_sat + 1;
    match
      Sat.Solver.solve_limited ~guard ~assumptions:[ t ] ~conflict_limit:4000
        solver
    with
    | Some Sat.Solver.Sat -> `Refuted (cex_pattern ())
    | None ->
      acc.a_budget <- acc.a_budget + 1;
      `Unknown
    | Some Sat.Solver.Unsat -> `Proved
  in
  (* The representative rule: a node merges into its shallowest earlier
     proven-equal candidate when that candidate is no deeper; otherwise
     later readers of the candidate read the node's image instead, and
     the solver learns the equivalence. Either way no image gets deeper
     than its source node, and two equal cones — a miter's two sides —
     end up read through one image, whichever side is shallower. *)
  let try_merge id =
    let members = !(bucket_of id) in
    (* Re-scan after every refutation: the new round disqualifies the
       refuted candidate, so each retry makes progress. Bounded for
       safety; in practice a handful of retries suffice. *)
    let rec attempt tries =
      let shallower best rep =
        rep < id
        && Graph.node_of_lit image.(rep) <> Graph.node_of_lit image.(id)
        && (match best with
            | None -> true
            | Some b -> level image.(rep) <= level image.(b))
        && (equal_sig rep id || compl_sig rep id)
      in
      match
        List.fold_left
          (fun best rep -> if shallower best rep then Some rep else best)
          None members
      with
      | Some rep when tries > 0 -> (
        let rep_lit =
          if equal_sig rep id then image.(rep) else Graph.bnot image.(rep)
        in
        match prove_equal image.(id) rep_lit with
        | `Proved ->
          acc.a_merge <- acc.a_merge + 1;
          if level rep_lit <= level image.(id) then image.(id) <- rep_lit
          else begin
            (* Both images stay in [dst], so the solver needs the
               equivalence that [image] alone no longer shows. *)
            let x = sat_lit image.(id) and y = sat_lit rep_lit in
            Sat.Solver.add_clause solver [ -x; y ];
            Sat.Solver.add_clause solver [ x; -y ];
            let old = Graph.node_of_lit rep_lit in
            let moved = image.(id) in
            List.iter
              (fun m ->
                let im = image.(m) in
                if m < id && Graph.node_of_lit im = old then
                  image.(m) <-
                    (if im = rep_lit then moved else Graph.bnot moved))
              members
          end
        | `Unknown -> ()
        | `Refuted pat ->
          add_cex_round pat;
          attempt (tries - 1))
      | _ -> ()
    in
    attempt 16
  in
  for id = 1 to nn - 1 do
    if live.(id) && Graph.is_and g id then begin
      let f0, f1 = Graph.fanins g id in
      let l = Graph.band dst (image_of_lit f0) (image_of_lit f1) in
      let d = Graph.node_of_lit l in
      if Graph.is_and dst d then begin
        let a, b = Graph.fanins dst d in
        dlev.(d) <- 1 + max (level a) (level b)
      end;
      image.(id) <- l;
      try_merge id
    end
  done;
  let witness l =
    match Sat.Solver.solve ~assumptions:[ sat_lit l ] solver with
    | Sat.Solver.Unsat -> None
    | Sat.Solver.Sat -> Some (cex_pattern ())
  in
  let r = k dst image_of_lit witness in
  record_solver_stats solver;
  r

let new_acc () = { a_sim = 0; a_sat = 0; a_merge = 0; a_budget = 0 }

let sweep ~guard g =
  let acc = new_acc () in
  let swept =
    fraig ~guard acc g (List.map snd (Graph.outputs g)) (fun dst image _ ->
        List.iter
          (fun (name, l) -> Graph.add_output dst name (image l))
          (Graph.outputs g);
        Graph.cleanup dst)
  in
  Obs.add m_sweep_sat_calls acc.a_sat;
  Obs.add m_sweep_merges acc.a_merge;
  swept

let check_with_stats ?(guard = Guard.none) a b =
  let tok = Obs.span_begin sp_check in
  Obs.incr m_checks;
  let acc = new_acc () in
  let g, diffs = miter a b in
  let live = List.filter (fun d -> d <> Graph.const_false) diffs in
  let verdict =
    if live = [] then Equivalent
    else begin
      acc.a_sim <- acc.a_sim + 16;
      match random_counterexample g live 16 with
      | Some cex ->
        Obs.incr m_sim_refuted;
        Counterexample cex
      | None -> (
        (* Every diff whose image survived the sweep gets a final
           unbounded query on the swept (much smaller) structure.
           Deliberately not guarded: the verdict must stay sound under
           any budget or injected fault — only the merge-proof effort
           is governable. *)
        fraig ~guard acc g live (fun _ image witness ->
            let survivor d =
              let im = image d in
              if im = Graph.const_false then None
              else begin
                acc.a_sat <- acc.a_sat + 1;
                witness im
              end
            in
            match List.find_map survivor live with
            | None -> Equivalent
            | Some cex -> Counterexample cex))
    end
  in
  Obs.add m_sim_rounds acc.a_sim;
  Obs.add m_sat_calls acc.a_sat;
  Obs.add m_merges acc.a_merge;
  Obs.add m_budget acc.a_budget;
  Obs.span_end sp_check tok;
  ( verdict,
    { sim_rounds = acc.a_sim;
      sat_calls = acc.a_sat;
      merges = acc.a_merge;
      budget_exhausted = acc.a_budget } )

let check ?guard a b = fst (check_with_stats ?guard a b)

let equivalent ?guard a b =
  match check ?guard a b with Equivalent -> true | Counterexample _ -> false
