let cleanup = Graph.cleanup

let m_pairs = Obs.counter "sweep.candidate_pairs"
let m_sat_calls = Obs.counter "sweep.sat_calls"
let m_merges = Obs.counter "sweep.merges"

let rounds = 8
let max_pairs = 2000

let sat_sweep ?(guard = Guard.none) g =
  let nn = Graph.num_nodes g in
  let ni = Graph.num_inputs g in
  if ni = 0 then Graph.cleanup g
  else begin
    (* Signatures from several simulation rounds; canonical polarity keeps
       a node and its complement in one class. *)
    let st = Random.State.make [| 0xcafe; nn |] in
    let sigs = Array.make nn [] in
    for _ = 1 to rounds do
      let words = Array.init ni (fun _ -> Random.State.int64 st Int64.max_int) in
      let values = Graph.sim g words in
      for id = 0 to nn - 1 do
        sigs.(id) <- values.(id) :: sigs.(id)
      done
    done;
    let canon s =
      let flipped = List.map Int64.lognot s in
      if s <= flipped then (s, false) else (flipped, true)
    in
    let classes = Hashtbl.create 256 in
    for id = 0 to nn - 1 do
      if id = 0 || Graph.is_and g id then begin
        let key, flip = canon sigs.(id) in
        let prev = try Hashtbl.find classes key with Not_found -> [] in
        Hashtbl.replace classes key ((id, flip) :: prev)
      end
    done;
    (* Candidate pairs: each class member against the class representative.
       The representative is the shallowest member (then the smallest id)
       so merging never increases the depth of the circuit. *)
    let lv = Graph.levels g in
    let pairs = ref [] in
    Hashtbl.iter
      (fun _ members ->
        let ordered =
          List.sort
            (fun (a, _) (b, _) -> compare (lv.(a), a) (lv.(b), b))
            members
        in
        match ordered with
        | [] | [ _ ] -> ()
        | (rep, rep_flip) :: rest ->
          List.iter
            (fun (id, flip) ->
              if id > rep then pairs := (rep, id, rep_flip <> flip) :: !pairs)
            rest)
      classes;
    let pairs =
      let sorted = List.sort compare !pairs in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: r -> x :: take (n - 1) r
      in
      take max_pairs sorted
    in
    Obs.add m_pairs (List.length pairs);
    if pairs = [] then Graph.cleanup g
    else begin
      let solver = Sat.Solver.create () in
      let sat_lit = Cnf.encode solver g in
      let subst = Hashtbl.create 64 in
      (* subst: node id -> replacement literal in the ORIGINAL graph *)
      let resolve id =
        let rec go l =
          let i = Graph.node_of_lit l in
          match Hashtbl.find_opt subst i with
          | None -> l
          | Some l' ->
            let r = go l' in
            if Graph.is_complemented l then Graph.bnot r else r
        in
        go (Graph.lit_of_node id false)
      in
      List.iter
        (fun (rep, id, flipped) ->
          if not (Hashtbl.mem subst id) then begin
            let rep_lit = resolve rep in
            (* Avoid cyclic substitutions through an already-replaced rep. *)
            if Graph.node_of_lit rep_lit <> id then begin
              let a = sat_lit (Graph.lit_of_node id false) in
              let b = sat_lit (if flipped then Graph.bnot rep_lit else rep_lit) in
              Obs.incr m_sat_calls;
              (* One batched miter query per pair: a fresh selector [t]
                 implies the disequality ([t -> a <> b]), assumed for
                 this query only. Unsat proves [a == b] in one solve
                 instead of the two directional queries. Guarded with
                 limit 0 (= unlimited unless the budget caps it):
                 [None] simply skips the merge, which is always sound.
                 A retired selector costs nothing — unasserted, its
                 clauses are satisfied by the default phase [t = false]. *)
              let t = Sat.Solver.new_var solver in
              Sat.Solver.add_clause solver [ -t; a; b ];
              Sat.Solver.add_clause solver [ -t; -a; -b ];
              let ne =
                Sat.Solver.solve_limited ~guard ~assumptions:[ t ]
                  ~conflict_limit:0 solver
              in
              if ne = Some Sat.Solver.Unsat then begin
                Obs.incr m_merges;
                Hashtbl.replace subst id
                  (if flipped then Graph.bnot rep_lit else rep_lit)
              end
            end
          end)
        pairs;
      Cec.record_solver_stats solver;
      if Hashtbl.length subst = 0 then Graph.cleanup g
      else begin
        (* Rebuild with substitutions applied. *)
        let dst = Graph.create () in
        let map = Hashtbl.create 256 in
        List.iter
          (fun l ->
            let id = Graph.node_of_lit l in
            Hashtbl.replace map id
              (Graph.add_input ?name:(Graph.input_name g id) dst))
          (Graph.inputs g);
        Hashtbl.replace map 0 Graph.const_false;
        let rec build l =
          let id = Graph.node_of_lit l in
          let via_subst = resolve id in
          let base =
            if Graph.node_of_lit via_subst <> id then begin
              let b = build via_subst in
              b
            end
            else
              match Hashtbl.find_opt map id with
              | Some b -> b
              | None ->
                let f0, f1 = Graph.fanins g id in
                let b = Graph.band dst (build f0) (build f1) in
                Hashtbl.replace map id b;
                b
          in
          if Graph.is_complemented l then Graph.bnot base else base
        in
        List.iter
          (fun (name, l) -> Graph.add_output dst name (build l))
          (Graph.outputs g);
        dst
      end
    end
  end
