(* E-graph core. See graph.mli for the model; the short version: egg's
   hash-cons + union-find + deferred congruence repair, over the AIG
   node language with sorted And children (commutativity by
   construction) and a canonical complement pairing (complement
   cancellation by construction). *)

module Tt = Logic.Tt

type id = int

type enode =
  | Const
  | Input of int
  | Not of id
  | And of id * id

type t = {
  guard : Guard.t;
  mutable parent : int array; (* union-find, parent.(i) = i at roots *)
  mutable n : int; (* classes allocated *)
  memo : (enode, id) Hashtbl.t; (* canonical enode -> class *)
  mutable nodes : enode list array; (* per root: the class's e-nodes *)
  mutable parents : (enode * id) list array;
      (* per root: e-nodes that reference this class, and their class *)
  neg : (id, id) Hashtbl.t;
      (* canonical complement pairing; keys live at class roots, values
         are find-corrected on read *)
  mutable worklist : id list;
  mutable n_enodes : int;
  false_ : id;
  true_ : id;
  mutable n_inputs : int;
  mutable input_names : string option array;
  mutable outputs : (string * id) list; (* in source output order *)
}

let m_enodes = Obs.counter "egraph.enodes"
let m_unions = Obs.counter "egraph.unions"
let m_iterations = Obs.counter "egraph.iterations"
let m_assoc_apps = Obs.counter "egraph.assoc_apps"
let m_window_apps = Obs.counter "egraph.window_apps"
let m_best_so_far = Lookahead.Driver.rung_counter "egraph_best_so_far"
let site_mk = "egraph.mk_enode"
let site_saturate = "egraph.saturate"

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let gp = t.parent.(p) in
    t.parent.(i) <- gp;
    find t gp
  end

let canon t = function
  | (Const | Input _) as n -> n
  | Not a -> Not (find t a)
  | And (a, b) ->
    let a = find t a and b = find t b in
    if a <= b then And (a, b) else And (b, a)

let neg_find t a =
  match Hashtbl.find_opt t.neg (find t a) with
  | Some b -> Some (find t b)
  | None -> None

let ensure t cap =
  if cap > Array.length t.parent then begin
    let len = max cap (2 * Array.length t.parent) in
    let parent = Array.init len (fun i -> i) in
    Array.blit t.parent 0 parent 0 t.n;
    let nodes = Array.make len [] in
    Array.blit t.nodes 0 nodes 0 t.n;
    let parents = Array.make len [] in
    Array.blit t.parents 0 parents 0 t.n;
    t.parent <- parent;
    t.nodes <- nodes;
    t.parents <- parents
  end

(* A fresh class holding exactly [n]; the caller has already ticked the
   guard, checked the ceiling and consulted memo. *)
let fresh_class t n =
  ensure t (t.n + 1);
  let id = t.n in
  t.n <- t.n + 1;
  t.parent.(id) <- id;
  t.nodes.(id) <- [ n ];
  t.parents.(id) <- [];
  Hashtbl.replace t.memo n id;
  t.n_enodes <- t.n_enodes + 1;
  id

let create ?(guard = Guard.none) () =
  let t =
    {
      guard;
      parent = Array.init 16 (fun i -> i);
      n = 0;
      memo = Hashtbl.create 256;
      nodes = Array.make 16 [];
      parents = Array.make 16 [];
      neg = Hashtbl.create 64;
      worklist = [];
      n_enodes = 0;
      false_ = 0;
      true_ = 1;
      n_inputs = 0;
      input_names = [||];
      outputs = [];
    }
  in
  (* The constant classes are free: no tick, no ceiling — a budget of 1
     should govern the circuit's nodes, not the two constants every
     e-graph contains. *)
  let f = fresh_class t Const in
  let tr = fresh_class t (Not f) in
  t.parents.(f) <- [ (Not f, tr) ];
  Hashtbl.replace t.neg f tr;
  Hashtbl.replace t.neg tr f;
  t

let false_id t = t.false_
let true_id t = t.true_

let rec union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    (* Smaller id wins: canonical ids are stable under any merge order,
       which keeps extraction tie-breaks deterministic. *)
    let r, c = if ra < rb then (ra, rb) else (rb, ra) in
    t.parent.(c) <- r;
    t.nodes.(r) <- t.nodes.(r) @ t.nodes.(c);
    t.nodes.(c) <- [];
    t.parents.(r) <- t.parents.(r) @ t.parents.(c);
    t.parents.(c) <- [];
    t.worklist <- r :: t.worklist;
    Obs.incr m_unions;
    let nc = Hashtbl.find_opt t.neg c in
    Hashtbl.remove t.neg c;
    (match (nc, Hashtbl.find_opt t.neg r) with
    | None, _ -> ()
    | Some nc, None -> Hashtbl.replace t.neg r nc
    | Some nc, Some nr ->
      (* a = b forces not(a) = not(b); stale back-pointers are fine,
         reads find-correct both key and value *)
      ignore (union t nc nr));
    true
  end

(* Constant, idempotence and complement folds: the reason the e-graph
   never materializes trivially-reducible nodes. *)
let fold t n =
  match n with
  | Const -> Some t.false_
  | Input _ -> None
  | Not a ->
    let a = find t a in
    if a = t.false_ then Some t.true_
    else if a = t.true_ then Some t.false_
    else neg_find t a (* hash-consing of Not, and not(not x) = x *)
  | And (a, b) ->
    let a = find t a and b = find t b in
    if a = t.false_ || b = t.false_ then Some t.false_
    else if a = t.true_ then Some b
    else if b = t.true_ then Some a
    else if a = b then Some a
    else if neg_find t a = Some b then Some t.false_
    else None

let add t n0 =
  let n = canon t n0 in
  match fold t n with
  | Some id -> find t id
  | None -> (
    match Hashtbl.find_opt t.memo n with
    | Some id -> find t id
    | None ->
      Guard.tick_bdd t.guard ~site:site_mk;
      if t.n_enodes >= Guard.bdd_ceiling t.guard then
        raise
          (Guard.Blowup
             { resource = Guard.Bdd_nodes; site = site_mk; injected = false });
      let id = fresh_class t n in
      Obs.incr m_enodes;
      (match n with
      | Const | Input _ -> ()
      | Not a ->
        let ra = find t a in
        t.parents.(ra) <- (n, id) :: t.parents.(ra);
        Hashtbl.replace t.neg ra id;
        Hashtbl.replace t.neg id ra
      | And (a, b) ->
        let ra = find t a in
        t.parents.(ra) <- (n, id) :: t.parents.(ra);
        let rb = find t b in
        if rb <> ra then t.parents.(rb) <- (n, id) :: t.parents.(rb));
      id)

(* Congruence repair of one touched class: re-canonicalize its parents,
   re-intern them, and union any that collide — either with an existing
   memo entry or with each other. Allocates no e-nodes. *)
let repair t r =
  let ps = t.parents.(find t r) in
  t.parents.(find t r) <- [];
  List.iter (fun (pn, _) -> Hashtbl.remove t.memo pn) ps;
  let fresh = Hashtbl.create (max 8 (2 * List.length ps)) in
  List.iter
    (fun (pn, pc) ->
      let pn = canon t pn in
      let pc = find t pc in
      (match Hashtbl.find_opt t.memo pn with
      | Some other when find t other <> pc -> ignore (union t pc other)
      | _ -> ());
      Hashtbl.replace t.memo pn (find t pc);
      match Hashtbl.find_opt fresh pn with
      | Some other when find t other <> find t pc ->
        ignore (union t other pc)
      | Some _ -> ()
      | None -> Hashtbl.replace fresh pn (find t pc))
    ps;
  let r = find t r in
  Hashtbl.iter
    (fun pn pc -> t.parents.(r) <- (pn, find t pc) :: t.parents.(r))
    fresh

let rebuild t =
  let dirty = t.worklist <> [] in
  while t.worklist <> [] do
    let todo = List.sort_uniq compare (List.map (find t) t.worklist) in
    t.worklist <- [];
    List.iter (fun r -> repair t r) todo
  done;
  (* A node sits on both children's parents lists, each holding the
     snapshot of its last repair. When repairs race through different
     snapshots, removal by the older one is a no-op and a superseded
     key lingers. Such keys are unreachable by canonical lookups (a
     merged id never becomes a root again, and repair always inserts
     the current canonical form), so sweeping them restores the strict
     all-keys-canonical invariant without touching live entries. *)
  if dirty then begin
    let stale =
      Hashtbl.fold
        (fun n _ acc -> if canon t n <> n then n :: acc else acc)
        t.memo []
    in
    List.iter (Hashtbl.remove t.memo) stale
  end

let classes t =
  let acc = ref [] in
  for c = t.n - 1 downto 0 do
    if find t c = c then acc := c :: !acc
  done;
  !acc

let nodes_of t c = t.nodes.(find t c)

let invariants_ok t =
  t.worklist = []
  && Hashtbl.fold
       (fun n id ok ->
         ok && canon t n = n
         &&
         match Hashtbl.find_opt t.memo (canon t n) with
         | Some id' -> find t id' = find t id
         | None -> false)
       t.memo true
  && List.for_all
       (fun r ->
         List.for_all
           (fun n ->
             match Hashtbl.find_opt t.memo (canon t n) with
             | Some id -> find t id = r
             | None -> false)
           t.nodes.(r))
       (classes t)

(* --- building from a circuit ------------------------------------------ *)

let of_aig ?guard g =
  let t = create ?guard () in
  t.n_inputs <- Aig.num_inputs g;
  t.input_names <- Array.init t.n_inputs (fun i -> Aig.input_name g i);
  let cls = Array.make (max 1 (Aig.num_nodes g)) (-1) in
  cls.(0) <- t.false_;
  let lit l =
    let c = cls.(Aig.node_of_lit l) in
    if Aig.is_complemented l then add t (Not c) else c
  in
  for node = 1 to Aig.num_nodes g - 1 do
    if Aig.is_input g node then
      cls.(node) <- add t (Input (Aig.input_index g node))
    else begin
      let fa, fb = Aig.fanins g node in
      cls.(node) <- add t (And (lit fa, lit fb))
    end
  done;
  t.outputs <- List.map (fun (name, l) -> (name, lit l)) (Aig.outputs g);
  t

(* --- extraction -------------------------------------------------------- *)

(* Bottom-up fixpoint: ascending class ids, nodes in insertion order,
   strictly-smaller cost to update — all deterministic, and the strict
   inequality keeps the chosen-best graph acyclic for any monotone cost
   (a cycle would need some node's cost to strictly drop when adopting
   an edge of equal cost). *)
let best_costs t (cost : Cost.t) =
  rebuild t;
  let n = t.n in
  let costs = Array.make n infinity in
  let best = Array.make n None in
  let node_cost = function
    | Const | Input _ -> cost.Cost.node_cost Cost.Leaf [||]
    | Not a ->
      let ca = costs.(find t a) in
      if ca = infinity then infinity else cost.Cost.node_cost Cost.Neg [| ca |]
    | And (a, b) ->
      let ca = costs.(find t a) and cb = costs.(find t b) in
      if ca = infinity || cb = infinity then infinity
      else cost.Cost.node_cost Cost.Conj [| ca; cb |]
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for c = 0 to n - 1 do
      if find t c = c then
        List.iter
          (fun nd ->
            let k = node_cost nd in
            if k < costs.(c) then begin
              costs.(c) <- k;
              best.(c) <- Some nd;
              changed := true
            end)
          t.nodes.(c)
    done
  done;
  (costs, best)

let best_cost t cost c =
  let costs, _ = best_costs t cost in
  costs.(find t c)

let build_best t best roots =
  let g = Aig.create () in
  let in_lits =
    Array.init t.n_inputs (fun i ->
        match t.input_names.(i) with
        | Some name -> Aig.add_input ~name g
        | None -> Aig.add_input g)
  in
  let memo = Hashtbl.create 256 in
  let rec build c =
    let c = find t c in
    match Hashtbl.find_opt memo c with
    | Some l -> l
    | None ->
      let l =
        match best.(c) with
        | None -> invalid_arg "Egraph.extract: class with no finite cost"
        | Some Const -> Aig.const_false
        | Some (Input i) -> in_lits.(i)
        | Some (Not a) -> Aig.bnot (build a)
        | Some (And (a, b)) -> Aig.band g (build a) (build b)
      in
      Hashtbl.replace memo c l;
      l
  in
  List.iter (fun (name, root) -> Aig.add_output g name (build root)) roots;
  g

let extract t cost =
  let _, best = best_costs t cost in
  build_best t best t.outputs

(* --- saturation -------------------------------------------------------- *)

(* Classes the current best extraction actually uses, from the output
   roots down — the ones worth spending window applications on. *)
let reachable_best t best =
  let seen = Hashtbl.create 256 in
  let rec go c =
    let c = find t c in
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      match best.(c) with
      | Some (Not a) -> go a
      | Some (And (a, b)) ->
        go a;
        go b
      | _ -> ()
    end
  in
  List.iter (fun (_, root) -> go root) t.outputs;
  seen

(* Truth table of a window: expand the chosen-best tree from [root],
   complement edges free, conjunctions until [depth] runs out; every
   frontier class becomes a leaf variable (at most [max_window] of
   them, else the window is rejected). A class may appear both expanded
   and as a leaf — the table is still exact on every consistent leaf
   valuation, which is the only kind substitution ever produces. *)
exception Too_wide

let window_tt t best ~max_window root =
  let leaves = ref [] in
  let n_leaves = ref 0 in
  let leaf_var c =
    match List.assoc_opt c !leaves with
    | Some v -> v
    | None ->
      if !n_leaves >= max_window then raise Too_wide;
      let v = !n_leaves in
      leaves := (c, v) :: !leaves;
      incr n_leaves;
      v
  in
  let rec ev c depth =
    let c = find t c in
    if c = t.false_ then Tt.const_false max_window
    else if c = t.true_ then Tt.const_true max_window
    else
      match best.(c) with
      | Some (Not a) when depth > 0 -> Tt.lnot (ev a (depth - 1))
      | Some (And (a, b)) when depth > 0 ->
        Tt.land_ (ev a (depth - 1)) (ev b (depth - 1))
      | Some (Input _) | Some Const | Some (Not _) | Some (And _) | None ->
        Tt.var max_window (leaf_var c)
  in
  match ev root (4 * max_window) with
  | tt ->
    let arr = Array.make !n_leaves t.false_ in
    List.iter (fun (c, v) -> arr.(v) <- c) !leaves;
    Some (arr, tt)
  | exception Too_wide -> None

(* Shannon resynthesis, latest-arriving leaf first: decompose on the
   support variable whose class sits deepest (max level, ties to the
   smaller leaf index), so the late signal ends up adjacent to the
   window output — the paper's lookahead selection, as a rule. *)
let rec synth_tt t levels_of leaves tt =
  if Tt.is_const_false tt then t.false_
  else if Tt.is_const_true tt then t.true_
  else begin
    let v =
      match Tt.support tt with
      | [] -> assert false
      | v0 :: rest ->
        List.fold_left
          (fun acc v -> if levels_of leaves.(v) > levels_of leaves.(acc) then v else acc)
          v0 rest
    in
    let x = leaves.(v) in
    let h1 = synth_tt t levels_of leaves (Tt.cofactor tt v true) in
    let h0 = synth_tt t levels_of leaves (Tt.cofactor tt v false) in
    (* x·h1 + ¬x·h0 as ¬(¬(x∧h1) ∧ ¬(¬x∧h0)); the folds collapse the
       degenerate cofactors (h1 = true, h0 = false, ...) for free *)
    let p = add t (And (x, h1)) in
    let q = add t (And (add t (Not x), h0)) in
    add t (Not (add t (And (add t (Not p), add t (Not q)))))
  end

(* One saturation iteration: collect matches read-only, then apply.
   Returns (unions performed, enodes created). *)
let iteration t ~max_apps ~max_window ~assoc_cap =
  let unions0 = ref 0 in
  let enodes0 = t.n_enodes in
  let note b = if b then incr unions0 in
  (* Rule 1 — associativity: c = (x·y)·q rebalances to x·(y·q). With
     sorted children this also yields the commuted shapes, and together
     with the idempotence fold it subsumes absorption. Matches are
     collected before any application so the match set is a function of
     the iteration's starting e-graph. *)
  let assoc = ref [] in
  let n_assoc = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun nd ->
          match nd with
          | And (a, b) when !n_assoc < assoc_cap ->
            let try_child p q =
              List.iter
                (fun pn ->
                  match pn with
                  | And (x, y) when !n_assoc < assoc_cap ->
                    assoc := (c, x, y, q) :: !assoc;
                    incr n_assoc
                  | _ -> ())
                t.nodes.(find t p)
            in
            try_child a b;
            try_child b a
          | _ -> ())
        t.nodes.(c))
    (classes t);
  List.iter
    (fun (c, x, y, q) ->
      let inner = add t (And (y, q)) in
      let outer = add t (And (x, inner)) in
      note (union t c outer);
      Obs.incr m_assoc_apps)
    (List.rev !assoc);
  rebuild t;
  (* Rule 2 — the lookahead window rule, on the classes the current
     best extraction actually uses, deepest first: cut a ≤ max_window
     leaf window out of the chosen-best tree, compute its function, and
     resynthesize it by Shannon decomposition on the latest-arriving
     leaf. Unioning the resynthesis into the class is the paper's
     Σ-selection expressed as an equality. *)
  let costs, best = best_costs t Cost.levels in
  let reach = reachable_best t best in
  let candidates =
    List.filter
      (fun c ->
        Hashtbl.mem reach c
        && match best.(c) with Some (And _) -> true | _ -> false)
      (classes t)
  in
  let candidates =
    List.stable_sort
      (fun a b -> compare costs.(b) costs.(a))
      candidates
  in
  let levels_of c = costs.(find t c) in
  let applied = ref 0 in
  List.iter
    (fun c ->
      if !applied < max_apps then
        match window_tt t best ~max_window c with
        | Some (leaves, tt) when Array.length leaves >= 2 ->
          let r = synth_tt t levels_of leaves tt in
          note (union t c r);
          incr applied;
          Obs.incr m_window_apps
        | _ -> ())
    candidates;
  rebuild t;
  (!unions0, t.n_enodes - enodes0)

type outcome = Saturated | Iteration_limit | Degraded of Guard.resource

let saturate ?(max_iters = 8) ?(max_apps = 24) ?(max_window = 6)
    ?(max_enodes = 50_000) t =
  rebuild t;
  let outcome = ref Iteration_limit in
  (try
     let iters = ref 0 in
     let continue_ = ref true in
     while !continue_ && !iters < max_iters do
       Guard.check_deadline t.guard ~site:site_saturate;
       if t.n_enodes > max_enodes then continue_ := false
       else begin
         let unions, created = iteration t ~max_apps ~max_window ~assoc_cap:2048 in
         incr iters;
         Obs.incr m_iterations;
         if unions = 0 && created = 0 then begin
           outcome := Saturated;
           continue_ := false
         end
       end
     done
   with Guard.Blowup { resource; _ } ->
     (* Mid-iteration state is fine: rebuild allocates nothing, and the
        e-graph still contains everything learned so far. *)
     rebuild t;
     Obs.incr m_best_so_far;
     outcome := Degraded resource);
  !outcome

let optimize ?(guard = Guard.none) ?max_iters ?max_apps ?max_window ?max_enodes
    ~cost g =
  match of_aig ~guard g with
  | exception Guard.Blowup _ ->
    (* Not even the input fits under the ceiling: the only sound
       best-so-far is the input itself. *)
    Obs.incr m_best_so_far;
    g
  | t ->
    ignore (saturate ?max_iters ?max_apps ?max_window ?max_enodes t);
    extract t cost
