let tree_depth levels =
  let insert x l =
    let rec go = function
      | [] -> [ x ]
      | y :: rest -> if x <= y then x :: y :: rest else y :: go rest
    in
    go l
  in
  let sorted = List.sort compare levels in
  let rec reduce = function
    | [] -> 0
    | [ d ] -> d
    | a :: b :: rest -> reduce (insert (1 + max a b) rest)
  in
  reduce sorted

let cube_depth cube ~fanin_level =
  tree_depth (List.map (fun (i, _) -> fanin_level i) (Logic.Cube.literals cube))

let sop_depth (sop : Logic.Sop.t) ~fanin_level =
  match sop.Logic.Sop.cubes with
  | [] -> 0
  | cubes -> tree_depth (List.map (fun c -> cube_depth c ~fanin_level) cubes)

let node_level net ~levels id =
  if Graph.is_input net id then 0
  else begin
    let nd = Graph.node net id in
    if Array.length nd.Graph.fanins = 0 then 0
    else if
      Logic.Tt.is_const_false nd.Graph.func
      || Logic.Tt.is_const_true nd.Graph.func
    then 0
    else begin
      let fanin_level i = levels.(nd.Graph.fanins.(i)) in
      let on, off = Logic.Minimize.min_sops nd.Graph.func in
      min (sop_depth on ~fanin_level) (sop_depth off ~fanin_level)
    end
  end

(* From-scratch computes are [Sched]: the lazy per-worker analysis
   caches trigger one per worker domain that runs at least one job, so
   the count depends on scheduling. The incremental-repair counters
   below are [Det]: repairs run on per-job engines whose level values
   are bit-identical across schedules (PR 3 contract), so each job does
   the same repair work wherever it runs. *)
let m_scratch = Obs.counter ~stability:Obs.Sched "levels.scratch_computes"
let m_invalidations = Obs.counter "levels.invalidations"
let m_repair_visits = Obs.counter "levels.repair_visits"
let m_repaired = Obs.counter "levels.repaired"

let compute net =
  Obs.incr m_scratch;
  let levels = Array.make (Graph.num_nodes net) 0 in
  List.iter (fun id -> levels.(id) <- node_level net ~levels id) (Graph.topo_order net);
  levels

(* Incremental levels: a dirty-region repair engine over [compute].

   [set_func] edits are recorded with [invalidate]; [levels] repairs by
   recomputing dirty nodes in ascending id order (ids are topological)
   and propagating to fanouts only when a node's level actually changed,
   so a query after an edit costs the transitive fanout of the changed
   region instead of the whole array. The repaired array is — by
   induction over ids — identical to a from-scratch [compute]. *)
module Inc = struct
  type t = {
    net : Graph.t;
    fanouts : int list array;
    frozen_n : int; (* node count at creation: appends invalidate [t] *)
    levels : int array;
    dirty : bool array; (* [dirty.(id)]: queued in [heap] *)
    mutable heap : int array; (* binary min-heap of dirty ids *)
    mutable heap_len : int;
  }

  (* Minimal int min-heap. Propagation only ever pushes ids larger than
     the id being popped, so ascending-order processing is total. *)
  let push t id =
    if not t.dirty.(id) then begin
      t.dirty.(id) <- true;
      if t.heap_len >= Array.length t.heap then begin
        let a = Array.make (max 8 (2 * Array.length t.heap)) 0 in
        Array.blit t.heap 0 a 0 t.heap_len;
        t.heap <- a
      end;
      let i = ref t.heap_len in
      t.heap_len <- t.heap_len + 1;
      t.heap.(!i) <- id;
      while !i > 0 && t.heap.(((!i - 1) / 2)) > t.heap.(!i) do
        let p = (!i - 1) / 2 in
        let tmp = t.heap.(p) in
        t.heap.(p) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := p
      done
    end

  let pop t =
    let top = t.heap.(0) in
    t.heap_len <- t.heap_len - 1;
    t.heap.(0) <- t.heap.(t.heap_len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.heap_len && t.heap.(l) < t.heap.(!s) then s := l;
      if r < t.heap_len && t.heap.(r) < t.heap.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tmp = t.heap.(!s) in
        t.heap.(!s) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !s
      end
    done;
    t.dirty.(top) <- false;
    top

  let of_levels net ~fanouts levels =
    assert (Array.length levels = Graph.num_nodes net);
    {
      net;
      fanouts;
      frozen_n = Graph.num_nodes net;
      levels = Array.copy levels;
      dirty = Array.make (Graph.num_nodes net) false;
      heap = Array.make 16 0;
      heap_len = 0;
    }

  let create net = of_levels net ~fanouts:(Graph.fanouts net) (compute net)

  let invalidate t id =
    Obs.incr m_invalidations;
    push t id

  let levels t =
    (* The wiring caches freeze the node count: appending nodes would
       silently stale [fanouts], so it is a programming error. *)
    assert (Graph.num_nodes t.net = t.frozen_n);
    if t.heap_len > 0 then begin
      let visits = ref 0 and repaired = ref 0 in
      while t.heap_len > 0 do
        incr visits;
        let id = pop t in
        let l = node_level t.net ~levels:t.levels id in
        if l <> t.levels.(id) then begin
          incr repaired;
          t.levels.(id) <- l;
          List.iter (fun f -> push t f) t.fanouts.(id)
        end
      done;
      Obs.add m_repair_visits !visits;
      Obs.add m_repaired !repaired
    end;
    t.levels
end

let depth net =
  let levels = compute net in
  List.fold_left
    (fun acc (o : Graph.output) -> max acc levels.(o.Graph.node))
    0 (Graph.outputs net)

let critical_inputs net ~levels id =
  if Graph.is_input net id then []
  else begin
    let nd = Graph.node net id in
    let k = Array.length nd.Graph.fanins in
    if k = 0 then []
    else begin
      let maxlev =
        Array.fold_left (fun acc f -> max acc levels.(f)) 0 nd.Graph.fanins
      in
      if maxlev = 0 then []
      else
        List.filter
          (fun i -> levels.(nd.Graph.fanins.(i)) = maxlev)
          (List.init k Fun.id)
    end
  end
