(* Candidate binary re-expressions, as (name, signature combiner,
   builder). Polarity variants of AND cover OR through De Morgan; XOR is
   its own case. *)
type shape = { sa : bool; sb : bool; sout : bool; xor : bool }

let shapes =
  let bools = [ false; true ] in
  List.concat_map
    (fun sa ->
      List.concat_map
        (fun sb ->
          List.concat_map
            (fun sout ->
              [ { sa; sb; sout; xor = false } ]
              @ if sa || sb then [] else [ { sa; sb; sout; xor = true } ])
            bools)
        bools)
    bools

let apply_shape_words s a b =
  let a = if s.sa then Int64.lognot a else a in
  let b = if s.sb then Int64.lognot b else b in
  let v = if s.xor then Int64.logxor a b else Int64.logand a b in
  if s.sout then Int64.lognot v else v

let build_shape g s a b =
  let a = if s.sa then Graph.bnot a else a in
  let b = if s.sb then Graph.bnot b else b in
  let v = if s.xor then Graph.bxor g a b else Graph.band g a b in
  if s.sout then Graph.bnot v else v

let rounds = 8
let max_checks = 600

let run g =
  let nn = Graph.num_nodes g in
  let ni = Graph.num_inputs g in
  if ni = 0 || nn < 4 then Graph.cleanup g
  else begin
    let st = Random.State.make [| 0x2e5; nn |] in
    let sigs = Array.make nn [||] in
    let words_rounds =
      Array.init rounds (fun _ ->
          Array.init ni (fun _ -> Random.State.int64 st Int64.max_int))
    in
    let per_round = Array.map (Graph.sim g) words_rounds in
    for id = 0 to nn - 1 do
      sigs.(id) <- Array.map (fun values -> values.(id)) per_round
    done;
    let levels = Graph.levels g in
    let depth = Graph.depth g in
    (* Divisor pool: shallow nodes, bucketed by level. Using only ids
       smaller than the target keeps the rewiring acyclic. *)
    let solver = Sat.Solver.create () in
    let sat_lit = Cnf.encode solver g in
    let checks = ref 0 in
    let recipes : (int, shape * int * int) Hashtbl.t = Hashtbl.create 32 in
    (* Verify lit_a == f(shape) applied to original nodes via SAT. The
       shape is expressed with existing solver literals, so no new
       clauses are needed for AND; XOR needs an auxiliary definition. *)
    let verify_equal target s a b =
      incr checks;
      let ta = sat_lit (Graph.lit_of_node target false) in
      if not s.xor then begin
        let la = sat_lit (if s.sa then Graph.bnot a else a) in
        let lb = sat_lit (if s.sb then Graph.bnot b else b) in
        (* f = la & lb (then sout). target != f is SAT iff:
           (target=1,f=0) or (target=0,f=1). With f a conjunction, encode
           the two checks by assumptions. *)
        let t_pos = if s.sout then -ta else ta in
        (* t_pos should equal (la & lb) *)
        let case1 = Sat.Solver.solve ~assumptions:[ t_pos; -la ] solver in
        let case1b = Sat.Solver.solve ~assumptions:[ t_pos; -lb ] solver in
        let case2 = Sat.Solver.solve ~assumptions:[ -t_pos; la; lb ] solver in
        case1 = Sat.Solver.Unsat && case1b = Sat.Solver.Unsat
        && case2 = Sat.Solver.Unsat
      end
      else begin
        let la = sat_lit a and lb = sat_lit b in
        let t_pos = if s.sout then -ta else ta in
        (* t_pos == la xor lb: the four violating cases must be UNSAT. *)
        List.for_all
          (fun assumptions ->
            Sat.Solver.solve ~assumptions solver = Sat.Solver.Unsat)
          [ [ t_pos; la; lb ]; [ t_pos; -la; -lb ];
            [ -t_pos; la; -lb ]; [ -t_pos; -la; lb ] ]
      end
    in
    (* Targets: deep nodes first (they gate the critical path). *)
    let targets =
      List.filter
        (fun id -> Graph.is_and g id && levels.(id) >= max 2 (depth / 2))
        (List.init nn Fun.id)
      |> List.sort (fun a b -> compare (levels.(b), b) (levels.(a), a))
    in
    let divisors_for target =
      List.filter
        (fun id ->
          id < target
          && (id = 0 || Graph.is_input g id || Graph.is_and g id)
          && levels.(id) + 2 <= levels.(target))
        (List.init target Fun.id)
    in
    List.iter
      (fun target ->
        if (not (Hashtbl.mem recipes target)) && !checks < max_checks then begin
          let divisors = Array.of_list (divisors_for target) in
          let nd = Array.length divisors in
          let found = ref false in
          (* Signature-compatible pairs; scan bounded. *)
          let limit = min nd 64 in
          let i = ref 0 in
          while (not !found) && !i < limit do
            let a = divisors.(nd - 1 - !i) in
            let j = ref 0 in
            while (not !found) && !j < !i do
              let b = divisors.(nd - 1 - !j) in
              List.iter
                (fun s ->
                  if (not !found) && !checks < max_checks then begin
                    let matches =
                      Array.for_all Fun.id
                        (Array.mapi
                           (fun r sa ->
                             apply_shape_words s sa sigs.(b).(r)
                             = sigs.(target).(r))
                           sigs.(a))
                    in
                    if
                      matches
                      && verify_equal target s (Graph.lit_of_node a false)
                           (Graph.lit_of_node b false)
                    then begin
                      found := true;
                      Hashtbl.replace recipes target (s, a, b)
                    end
                  end)
                shapes;
              incr j
            done;
            incr i
          done
        end)
      targets;
    if Hashtbl.length recipes = 0 then Graph.cleanup g
    else begin
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
        let base =
          match Hashtbl.find_opt map id with
          | Some b -> b
          | None ->
            let b =
              match Hashtbl.find_opt recipes id with
              | Some (s, a, b') ->
                build_shape dst s
                  (build (Graph.lit_of_node a false))
                  (build (Graph.lit_of_node b' false))
              | None ->
                let f0, f1 = Graph.fanins g id in
                Graph.band dst (build f0) (build f1)
            in
            Hashtbl.replace map id b;
            b
        in
        if Graph.is_complemented l then Graph.bnot base else base
      in
      List.iter
        (fun (name, l) -> Graph.add_output dst name (build l))
        (Graph.outputs g);
      Graph.cleanup dst
    end
  end
