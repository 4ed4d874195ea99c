(* CDCL solver. Internal literal encoding: variable v (1-based) yields
   literals 2v (positive) and 2v+1 (negative); [neg l = l lxor 1].
   Assignment values: 0 = false, 1 = true, -1 = unassigned (per variable).

   Clauses live in a flat int-array arena. A clause at [cref] is
   [header] words followed by its literals:

     arena.(cref)     = size (number of literals)
     arena.(cref + 1) = flags: bit 0 = learnt, bits 1.. = LBD
     arena.(cref + 2) = activity (use count in conflict analysis)

   Watch lists are paired (cref, blocker) int arrays per literal: the
   blocker is some other literal of the clause, checked before touching
   the clause itself, so most satisfied-clause visits cost one array
   read. Branching is VSIDS over an indexed binary max-heap with phase
   saving. Learnt clauses get a glue level (LBD: distinct decision
   levels at learning time) and are minimized by self-subsuming
   resolution against reason clauses before being stored.

   The database is reduced periodically — at conflict counts fixed per
   solver lifetime, so behaviour never depends on wall clock or [-j]:
   glue clauses (LBD <= 2) are kept unconditionally, the rest are
   sorted by LBD then activity and the worst half is dropped, then the
   arena is compacted and the watch lists rebuilt. Retained learnts are
   optionally vivified (re-propagated literal by literal under a
   propagation budget) while the solver sits at level 0. *)

let header = 3
let no_reason = -1

type t = {
  mutable nvars : int;
  mutable arena : int array;
  mutable arena_size : int; (* words in use *)
  mutable arena_peak : int;
  mutable clauses_vec : int array; (* crefs of problem clauses *)
  mutable n_clauses : int;
  mutable learnts_vec : int array; (* crefs of learnt clauses *)
  mutable n_learnts : int;
  mutable watch : int array array; (* per literal: (cref, blocker) pairs *)
  mutable wlen : int array; (* ints in use per watch list *)
  mutable assign : int array; (* per variable *)
  mutable level : int array;
  mutable reason : int array; (* cref, or [no_reason] *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable trail : int array; (* internal literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int list; (* trail sizes at decision points *)
  mutable qhead : int;
  mutable ok : bool;
  mutable conflicts : int;
  mutable last_conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable reductions : int;
  mutable learnts_deleted : int;
  mutable minimized_lits : int;
  mutable vivified_lits : int;
  mutable next_reduce : int; (* cumulative conflict count of next reduction *)
  mutable reduce_interval : int;
  vivify : bool;
  mutable seen : bool array;
  mutable phase : Bytes.t; (* saved polarity per variable: 0 false, 1 true *)
  mutable level_stamp : int array; (* per decision level, for LBD *)
  mutable stamp : int;
  mutable heap : int array; (* binary max-heap of variables by activity *)
  mutable heap_pos : int array; (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
}

let default_reduce_base = 300
let reduce_interval_growth = 300
let restart_base = 100
let vivify_max_clauses = 32
let vivify_max_size = 40
let vivify_prop_budget = 8_000

let create ?(vivify = true) ?(reduce_base = default_reduce_base) () =
  {
    nvars = 0;
    arena = Array.make 1024 0;
    arena_size = 0;
    arena_peak = 0;
    clauses_vec = Array.make 16 0;
    n_clauses = 0;
    learnts_vec = Array.make 16 0;
    n_learnts = 0;
    watch = Array.make 4 [||];
    wlen = Array.make 4 0;
    assign = Array.make 2 (-1);
    level = Array.make 2 0;
    reason = Array.make 2 no_reason;
    activity = Array.make 2 0.0;
    var_inc = 1.0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = [];
    qhead = 0;
    ok = true;
    conflicts = 0;
    last_conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    reductions = 0;
    learnts_deleted = 0;
    minimized_lits = 0;
    vivified_lits = 0;
    next_reduce = max 1 reduce_base;
    reduce_interval = max 1 reduce_base;
    vivify;
    seen = Array.make 2 false;
    phase = Bytes.make 2 '\000';
    level_stamp = Array.make 2 0;
    stamp = 0;
    heap = Array.make 16 0;
    heap_pos = Array.make 2 (-1);
    heap_size = 0;
  }

let grow_array a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* --- activity heap ---------------------------------------------------- *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < s.heap_size && s.activity.(s.heap.(l)) > s.activity.(s.heap.(!m))
  then m := l;
  if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(!m))
  then m := r;
  if !m <> i then begin
    heap_swap s i !m;
    sift_down s !m
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_size >= Array.length s.heap then begin
      let b = Array.make (2 * Array.length s.heap) 0 in
      Array.blit s.heap 0 b 0 s.heap_size;
      s.heap <- b
    end;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    sift_down s 0
  end;
  s.heap_pos.(v) <- -1;
  v

(* ---------------------------------------------------------------------- *)

let ensure_var s v =
  assert (v > 0);
  if v > s.nvars then begin
    let old = s.nvars in
    s.nvars <- v;
    s.assign <- grow_array s.assign (v + 1) (-1);
    s.level <- grow_array s.level (v + 1) 0;
    s.reason <- grow_array s.reason (v + 1) no_reason;
    s.activity <- grow_array s.activity (v + 1) 0.0;
    s.seen <- grow_array s.seen (v + 1) false;
    s.level_stamp <- grow_array s.level_stamp (v + 2) 0;
    s.watch <- grow_array s.watch ((2 * v) + 2) [||];
    s.wlen <- grow_array s.wlen ((2 * v) + 2) 0;
    if Bytes.length s.phase < v + 1 then begin
      let b = Bytes.make (max (v + 1) (2 * Bytes.length s.phase)) '\000' in
      Bytes.blit s.phase 0 b 0 (Bytes.length s.phase);
      s.phase <- b
    end;
    s.heap_pos <- grow_array s.heap_pos (v + 1) (-1);
    for u = old + 1 to v do
      heap_insert s u
    done
  end;
  v

let new_var s = ensure_var s (s.nvars + 1)
let num_vars s = s.nvars
let last_conflicts s = s.last_conflicts

let to_internal l =
  assert (l <> 0);
  if l > 0 then 2 * l else (2 * -l) + 1

let var_of l = l lsr 1
let neg l = l lxor 1

(* Value of an internal literal: 1 true, 0 false, -1 unassigned. *)
let lit_value s l =
  let a = s.assign.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let push_trail s l =
  if s.trail_size >= Array.length s.trail then begin
    let b = Array.make (2 * Array.length s.trail) 0 in
    Array.blit s.trail 0 b 0 s.trail_size;
    s.trail <- b
  end;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let decision_level s = List.length s.trail_lim

let enqueue s l reason =
  s.assign.(var_of l) <- 1 lxor (l land 1);
  s.level.(var_of l) <- decision_level s;
  s.reason.(var_of l) <- reason;
  push_trail s l

(* --- clause arena ------------------------------------------------------ *)

let clause_size s cref = s.arena.(cref)
let clause_lbd s cref = s.arena.(cref + 1) lsr 1
let clause_act s cref = s.arena.(cref + 2)
let clause_lit s cref i = s.arena.(cref + header + i)

let alloc_clause s lits learnt lbd =
  let size = Array.length lits in
  let need = s.arena_size + header + size in
  if need > Array.length s.arena then begin
    let b = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 b 0 s.arena_size;
    s.arena <- b
  end;
  let cref = s.arena_size in
  s.arena.(cref) <- size;
  s.arena.(cref + 1) <- (lbd lsl 1) lor (if learnt then 1 else 0);
  s.arena.(cref + 2) <- 0;
  Array.blit lits 0 s.arena (cref + header) size;
  s.arena_size <- need;
  if need > s.arena_peak then s.arena_peak <- need;
  cref

let push_vec vec n x =
  let vec = if n >= Array.length vec then grow_array vec (n + 1) 0 else vec in
  vec.(n) <- x;
  vec

let watch_push s l cref blocker =
  let a = s.watch.(l) in
  let n = s.wlen.(l) in
  let a =
    if n + 2 > Array.length a then begin
      let b = Array.make (max 8 (2 * Array.length a)) 0 in
      Array.blit a 0 b 0 n;
      s.watch.(l) <- b;
      b
    end
    else a
  in
  a.(n) <- cref;
  a.(n + 1) <- blocker;
  s.wlen.(l) <- n + 2

let attach_clause s cref =
  let l0 = clause_lit s cref 0 and l1 = clause_lit s cref 1 in
  watch_push s (neg l0) cref l1;
  watch_push s (neg l1) cref l0

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  (* Rescaling preserves the heap order; a bump only moves [v] up. *)
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

(* Propagate all enqueued assignments; return the conflicting clause's
   cref, or [no_reason]. Watch lists are compacted in place: a visit
   first checks the blocker literal, then the other watched literal,
   and only then scans the clause body for a replacement watch. *)
let propagate s =
  let conflict = ref no_reason in
  while !conflict = no_reason && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    (* p became true; visit clauses watching (neg p). *)
    let ws = s.watch.(p) in
    let n = s.wlen.(p) in
    let i = ref 0 and j = ref 0 in
    let arena = s.arena in
    while !i < n do
      let cref = ws.(!i) and blocker = ws.(!i + 1) in
      if lit_value s blocker = 1 then begin
        ws.(!j) <- cref;
        ws.(!j + 1) <- blocker;
        j := !j + 2;
        i := !i + 2
      end
      else begin
        let base = cref + header in
        let size = arena.(cref) in
        (* Ensure the false literal sits at slot 1. *)
        if arena.(base) = neg p then begin
          arena.(base) <- arena.(base + 1);
          arena.(base + 1) <- neg p
        end;
        let first = arena.(base) in
        if first <> blocker && lit_value s first = 1 then begin
          ws.(!j) <- cref;
          ws.(!j + 1) <- first;
          j := !j + 2;
          i := !i + 2
        end
        else begin
          (* Search a new watch among the tail literals. *)
          let k = ref 2 in
          while !k < size && lit_value s arena.(base + !k) = 0 do
            incr k
          done;
          if !k < size then begin
            let l = arena.(base + !k) in
            arena.(base + !k) <- arena.(base + 1);
            arena.(base + 1) <- l;
            watch_push s (neg l) cref first;
            i := !i + 2
          end
          else begin
            (* Unit or conflicting; keep the watch either way. *)
            ws.(!j) <- cref;
            ws.(!j + 1) <- first;
            j := !j + 2;
            i := !i + 2;
            if lit_value s first = 0 then begin
              conflict := cref;
              (* Copy the remaining watches untouched. *)
              while !i < n do
                ws.(!j) <- ws.(!i);
                ws.(!j + 1) <- ws.(!i + 1);
                i := !i + 2;
                j := !j + 2
              done
            end
            else enqueue s first cref
          end
        end
      end
    done;
    s.wlen.(p) <- !j
  done;
  !conflict

let backtrack s target =
  if decision_level s > target then begin
    (* trail_lim head is the trail size recorded at the most recent
       decision; popping [drop] levels leaves the size recorded at the
       oldest popped one. *)
    let drop = decision_level s - target in
    let rec drop_lims lims k last =
      match (lims, k) with
      | lims, 0 -> (lims, last)
      | x :: rest, k -> drop_lims rest (k - 1) x
      | [], _ -> ([], last)
    in
    let lims, boundary = drop_lims s.trail_lim drop s.trail_size in
    for i = s.trail_size - 1 downto boundary do
      let v = var_of s.trail.(i) in
      Bytes.unsafe_set s.phase v (Char.unsafe_chr s.assign.(v));
      s.assign.(v) <- -1;
      s.reason.(v) <- no_reason;
      heap_insert s v
    done;
    s.trail_size <- boundary;
    s.qhead <- boundary;
    s.trail_lim <- lims
  end

let add_clause s lits =
  if s.ok then begin
    (* Normalize at level 0 so root-satisfied/falsified literals can be
       resolved away. Callers only read models immediately after [Sat],
       so dropping a leftover model trail here is safe. *)
    backtrack s 0;
    List.iter (fun l -> ignore (ensure_var s (abs l))) lits;
    let lits = List.sort_uniq compare lits in
    let tautology = List.exists (fun l -> List.mem (-l) lits) lits in
    if not tautology then begin
      (* Remove literals already false at level 0; stop if satisfied. *)
      let lits =
        List.filter (fun l -> lit_value s (to_internal l) <> 0) lits
      in
      let satisfied =
        List.exists (fun l -> lit_value s (to_internal l) = 1) lits
      in
      if not satisfied then
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
          let il = to_internal l in
          enqueue s il no_reason;
          if propagate s <> no_reason then s.ok <- false
        | _ ->
          let arr = Array.of_list (List.map to_internal lits) in
          let cref = alloc_clause s arr false 0 in
          s.clauses_vec <- push_vec s.clauses_vec s.n_clauses cref;
          s.n_clauses <- s.n_clauses + 1;
          attach_clause s cref
    end
  end

(* --- conflict analysis ------------------------------------------------- *)

(* LBD: number of distinct decision levels among [lits]. *)
let compute_lbd s lits =
  s.stamp <- s.stamp + 1;
  let n = ref 0 in
  List.iter
    (fun l ->
      let lv = s.level.(var_of l) in
      if s.level_stamp.(lv) <> s.stamp then begin
        s.level_stamp.(lv) <- s.stamp;
        incr n
      end)
    lits;
  !n

let abstract_level s v = 1 lsl (s.level.(v) land 31)

(* MiniSat-style redundancy test: [l] is redundant in the learnt clause
   if every path from its reason to a decision stays inside variables
   already seen (i.e. in the clause or resolved over). [toclear]
   collects every variable whose [seen] bit this walk sets, so the
   caller can reset them; on failure the bits set since entry are
   rolled back. Iterative to keep the stack shallow. *)
let lit_redundant s toclear l0 abstract =
  let stack = ref [ l0 ] in
  let added = ref [] in
  let ok = ref true in
  while !ok && !stack <> [] do
    let l =
      match !stack with
      | x :: rest ->
        stack := rest;
        x
      | [] -> assert false
    in
    let cref = s.reason.(var_of l) in
    let size = clause_size s cref in
    let k = ref 1 in
    while !ok && !k < size do
      let q = clause_lit s cref !k in
      let v = var_of q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        if s.reason.(v) <> no_reason && abstract_level s v land abstract <> 0
        then begin
          s.seen.(v) <- true;
          stack := q :: !stack;
          added := v :: !added
        end
        else ok := false
      end;
      incr k
    done
  done;
  if !ok then toclear := List.rev_append !added !toclear
  else List.iter (fun v -> s.seen.(v) <- false) !added;
  !ok

(* First-UIP conflict analysis with recursive learnt-clause
   minimization. Returns (learnt lits, backtrack level, lbd); the
   asserting literal is first. *)
let analyze s confl =
  let learnt = ref [] in
  let toclear = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let cref = ref confl in
  let continue = ref true in
  while !continue do
    s.arena.(!cref + 2) <- s.arena.(!cref + 2) + 1;
    let size = clause_size s !cref in
    (* Skip slot 0 when resolving a reason clause: propagation leaves
       the propagated literal there. *)
    let start = if !p < 0 then 0 else 1 in
    for k = start to size - 1 do
      let q = clause_lit s !cref k in
      let v = var_of q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        toclear := v :: !toclear;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr counter
        else learnt := q :: !learnt
      end
    done;
    (* Pick the next trail literal marked seen. *)
    let rec find i = if s.seen.(var_of s.trail.(i)) then i else find (i - 1) in
    index := find !index;
    p := s.trail.(!index);
    s.seen.(var_of !p) <- false;
    decr counter;
    index := !index - 1;
    if !counter = 0 then continue := false else cref := s.reason.(var_of !p)
  done;
  (* Self-subsuming resolution: drop any literal whose reason graph is
     confined to levels already present in the clause. *)
  let abstract =
    List.fold_left (fun a q -> a lor abstract_level s (var_of q)) 0 !learnt
  in
  let kept =
    List.filter
      (fun q ->
        s.reason.(var_of q) = no_reason
        || not (lit_redundant s toclear q abstract))
      !learnt
  in
  s.minimized_lits <-
    s.minimized_lits + (List.length !learnt - List.length kept);
  List.iter (fun v -> s.seen.(v) <- false) !toclear;
  let btlevel =
    List.fold_left (fun b q -> max b s.level.(var_of q)) 0 kept
  in
  let lits = neg !p :: kept in
  (lits, btlevel, compute_lbd s lits)

(* Highest-activity unassigned variable, or 0 when all are assigned.
   Variables popped while assigned are re-inserted on backtrack (they sit
   on the trail), so the heap is a superset of the unassigned set. *)
let rec pick_branch s =
  if s.heap_size = 0 then 0
  else begin
    let v = heap_pop s in
    if s.assign.(v) < 0 then v else pick_branch s
  end

type result = Sat | Unsat

let record_learnt s lits lbd =
  match lits with
  | [] -> s.ok <- false
  | [ _ ] -> assert false (* units are handled by the caller at level 0 *)
  | l0 :: _ ->
    (* Watch the asserting literal and a literal from the backtrack
       level (the second-highest level literal must be at position 1). *)
    let arr = Array.of_list lits in
    let besti = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(var_of arr.(i)) > s.level.(var_of arr.(!besti)) then
        besti := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!besti);
    arr.(!besti) <- tmp;
    let cref = alloc_clause s arr true lbd in
    s.learnts_vec <- push_vec s.learnts_vec s.n_learnts cref;
    s.n_learnts <- s.n_learnts + 1;
    attach_clause s cref;
    enqueue s l0 cref

(* --- clause database reduction and vivification ------------------------ *)

(* Move every live clause to the front of a fresh arena of the same
   capacity, updating the clause vectors. Reasons must have been
   cleared (the solver is at level 0, where no reason is ever
   dereferenced) and watch lists are rebuilt by the caller. *)
let compact_arena s =
  let b = Array.make (Array.length s.arena) 0 in
  let pos = ref 0 in
  let move cref =
    let len = header + s.arena.(cref) in
    Array.blit s.arena cref b !pos len;
    let nc = !pos in
    pos := !pos + len;
    nc
  in
  for i = 0 to s.n_clauses - 1 do
    s.clauses_vec.(i) <- move s.clauses_vec.(i)
  done;
  for i = 0 to s.n_learnts - 1 do
    s.learnts_vec.(i) <- move s.learnts_vec.(i)
  done;
  s.arena <- b;
  s.arena_size <- !pos

let clause_satisfied_at_root s cref =
  let size = clause_size s cref in
  let sat = ref false in
  for i = 0 to size - 1 do
    if lit_value s (clause_lit s cref i) = 1 then sat := true
  done;
  !sat

(* Re-derive one retained learnt clause by propagating the negations of
   its literals in order while the clause itself is detached: literals
   false under the partial assignment are dropped, and a propagated
   (or conflicting) prefix truncates the clause. Runs at level 0; the
   [frozen] switch stops making further decisions once the caller's
   propagation budget is spent, copying the tail verbatim (always
   sound). Returns the clause's fate. *)
type vivify_fate = Viv_kept | Viv_removed | Viv_contradiction

let vivify_clause s cref frozen =
  let base = cref + header in
  let size = s.arena.(cref) in
  let out = Array.make size 0 in
  let n_out = ref 0 in
  let closed = ref false in
  let i = ref 0 in
  while (not !closed) && !i < size do
    let l = s.arena.(base + !i) in
    (if frozen () && decision_level s = 0 then begin
       (* Budget spent before any decision: keep the tail as is. *)
       for k = !i to size - 1 do
         out.(!n_out) <- s.arena.(base + k);
         incr n_out
       done;
       closed := true
     end
     else
       match lit_value s l with
       | 1 ->
         (* Prefix implies l: the clause is subsumed by prefix @ [l]. *)
         out.(!n_out) <- l;
         incr n_out;
         closed := true
       | 0 -> () (* prefix implies (not l): drop l *)
       | _ ->
         out.(!n_out) <- l;
         incr n_out;
         s.trail_lim <- s.trail_size :: s.trail_lim;
         enqueue s (neg l) no_reason;
         if propagate s <> no_reason then closed := true);
    incr i
  done;
  backtrack s 0;
  let n = !n_out in
  if n = size then begin
    attach_clause s cref;
    Viv_kept
  end
  else begin
    s.vivified_lits <- s.vivified_lits + (size - n);
    if n = 0 then begin
      s.ok <- false;
      Viv_contradiction
    end
    else if n = 1 then begin
      match lit_value s out.(0) with
      | 1 -> Viv_removed (* already a root fact *)
      | 0 ->
        s.ok <- false;
        Viv_contradiction
      | _ ->
        enqueue s out.(0) no_reason;
        if propagate s <> no_reason then begin
          s.ok <- false;
          Viv_contradiction
        end
        else Viv_removed
    end
    else begin
      s.arena.(cref) <- n;
      Array.blit out 0 s.arena base n;
      let lbd = min (clause_lbd s cref) n in
      s.arena.(cref + 1) <- (lbd lsl 1) lor (s.arena.(cref + 1) land 1);
      attach_clause s cref;
      Viv_kept
    end
  end

(* Reduce the learnt database. Must be called at decision level 0.
   Keeps glue clauses (LBD <= 2), drops root-satisfied learnts and the
   worst half of the rest by (LBD, activity), compacts the arena,
   rebuilds every watch list, and vivifies a bounded prefix of the
   retained learnts. May set [ok] to false if vivification refutes the
   instance. *)
let reduce_db s =
  s.reductions <- s.reductions + 1;
  (* All trail entries are level 0 here and level-0 reasons are never
     dereferenced, so clearing them unlocks every clause. *)
  for i = 0 to s.trail_size - 1 do
    s.reason.(var_of s.trail.(i)) <- no_reason
  done;
  (* Partition learnts: root-satisfied -> drop; glue -> keep; rest are
     candidates ranked by LBD then activity (then cref, for a total
     deterministic order). *)
  let glue = ref [] and cands = ref [] in
  let dropped = ref 0 in
  for i = 0 to s.n_learnts - 1 do
    let cref = s.learnts_vec.(i) in
    if clause_satisfied_at_root s cref then incr dropped
    else if clause_lbd s cref <= 2 then glue := cref :: !glue
    else cands := cref :: !cands
  done;
  let cands = Array.of_list (List.rev !cands) in
  Array.sort
    (fun a b ->
      let c = compare (clause_lbd s a) (clause_lbd s b) in
      if c <> 0 then c
      else
        let c = compare (clause_act s b) (clause_act s a) in
        if c <> 0 then c else compare a b)
    cands;
  let n_cands = Array.length cands in
  let keep_cands = n_cands - (n_cands / 2) in
  dropped := !dropped + (n_cands - keep_cands);
  s.learnts_deleted <- s.learnts_deleted + !dropped;
  let kept = List.rev !glue @ Array.to_list (Array.sub cands 0 keep_cands) in
  s.n_learnts <- 0;
  List.iter
    (fun cref ->
      s.learnts_vec <- push_vec s.learnts_vec s.n_learnts cref;
      s.n_learnts <- s.n_learnts + 1)
    kept;
  compact_arena s;
  (* Rebuild watches; vivification candidates are attached one by one
     after their own pass so propagation never sees a clause that is
     being rewritten. *)
  Array.fill s.wlen 0 (Array.length s.wlen) 0;
  for i = 0 to s.n_clauses - 1 do
    attach_clause s s.clauses_vec.(i)
  done;
  let viv = Array.make s.n_learnts false in
  if s.vivify then begin
    let picked = ref 0 in
    for i = 0 to s.n_learnts - 1 do
      if
        !picked < vivify_max_clauses
        && clause_size s s.learnts_vec.(i) <= vivify_max_size
      then begin
        viv.(i) <- true;
        incr picked
      end
    done
  end;
  for i = 0 to s.n_learnts - 1 do
    if not viv.(i) then attach_clause s s.learnts_vec.(i)
  done;
  if s.vivify then begin
    let props0 = s.propagations in
    let frozen () = s.propagations - props0 > vivify_prop_budget in
    let n = s.n_learnts in
    let out = ref [] in
    (* Iterate in index order; removed clauses are pruned afterwards. *)
    for i = 0 to n - 1 do
      let cref = s.learnts_vec.(i) in
      if not viv.(i) then out := cref :: !out
      else if not s.ok then () (* an earlier candidate refuted the instance *)
      else begin
        match vivify_clause s cref frozen with
        | Viv_kept -> out := cref :: !out
        | Viv_removed -> s.learnts_deleted <- s.learnts_deleted + 1
        | Viv_contradiction -> ()
      end
    done;
    let kept = List.rev !out in
    s.n_learnts <- 0;
    List.iter
      (fun cref ->
        s.learnts_vec <- push_vec s.learnts_vec s.n_learnts cref;
        s.n_learnts <- s.n_learnts + 1)
      kept
  end

(* --- search ------------------------------------------------------------ *)

(* Luby sequence (1 1 2 1 1 2 4 ...), 0-indexed. *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* [solve_internal] returns [None] when the conflict limit was exhausted
   before a verdict; the solver is left at decision level 0 and stays
   usable. [conflict_limit <= 0] means no limit. *)
let solve_internal ?(assumptions = []) ~conflict_limit s =
  s.last_conflicts <- 0;
  if not s.ok then Some Unsat
  else begin
    let result = ref None in
    let out_of_budget = ref false in
    backtrack s 0;
    List.iter (fun l -> ignore (ensure_var s (abs l))) assumptions;
    let assumption_lits = List.map to_internal assumptions in
    (* Plant assumptions as decisions; a conflict inside them is Unsat.
       Re-planting after a database reduction must succeed the same way
       or the instance is Unsat under the assumptions. *)
    let assumption_level = ref 0 in
    let plant () =
      try
        List.iter
          (fun il ->
            match lit_value s il with
            | 1 -> ()
            | 0 -> raise Exit
            | _ ->
              s.trail_lim <- s.trail_size :: s.trail_lim;
              enqueue s il no_reason;
              if propagate s <> no_reason then raise Exit)
          assumption_lits;
        assumption_level := decision_level s;
        true
      with Exit -> false
    in
    if not (plant ()) then result := Some Unsat;
    let restart_idx = ref 0 in
    let restart_limit = ref (luby 0 * restart_base) in
    let since_restart = ref 0 in
    while !result = None && not !out_of_budget do
      let confl = propagate s in
      if confl <> no_reason then begin
        s.conflicts <- s.conflicts + 1;
        s.last_conflicts <- s.last_conflicts + 1;
        incr since_restart;
        s.var_inc <- s.var_inc *. 1.052;
        if decision_level s <= !assumption_level then begin
          if decision_level s = 0 then s.ok <- false;
          result := Some Unsat
        end
        else if conflict_limit > 0 && s.last_conflicts >= conflict_limit then
          out_of_budget := true
        else begin
          let lits, btlevel, lbd = analyze s confl in
          (match lits with
          | [] ->
            s.ok <- false;
            result := Some Unsat
          | [ l ] ->
            (* Unit learnt: a root fact. Commit it at level 0 so it
               survives every later backtrack, then re-plant. *)
            backtrack s 0;
            (match lit_value s l with
            | 1 -> ()
            | 0 ->
              s.ok <- false;
              result := Some Unsat
            | _ ->
              enqueue s l no_reason;
              if propagate s <> no_reason then begin
                s.ok <- false;
                result := Some Unsat
              end);
            if !result = None && not (plant ()) then result := Some Unsat
          | _ ->
            let btlevel = max btlevel !assumption_level in
            backtrack s btlevel;
            record_learnt s lits lbd);
          (* Periodic reduction, triggered purely by the cumulative
             conflict count so the schedule is deterministic and
             independent of wall clock or [-j]. *)
          if !result = None && s.conflicts >= s.next_reduce then begin
            s.reduce_interval <- s.reduce_interval + reduce_interval_growth;
            s.next_reduce <- s.conflicts + s.reduce_interval;
            backtrack s 0;
            reduce_db s;
            if not s.ok then result := Some Unsat
            else if propagate s <> no_reason then begin
              s.ok <- false;
              result := Some Unsat
            end
            else if not (plant ()) then result := Some Unsat
          end;
          if !result = None && !since_restart >= !restart_limit then begin
            incr restart_idx;
            restart_limit := luby !restart_idx * restart_base;
            since_restart := 0;
            s.restarts <- s.restarts + 1;
            backtrack s !assumption_level
          end
        end
      end
      else begin
        let v = pick_branch s in
        if v = 0 then result := Some Sat
        else begin
          s.decisions <- s.decisions + 1;
          s.trail_lim <- s.trail_size :: s.trail_lim;
          (* Saved phase (false for never-assigned variables). *)
          let pos = Bytes.unsafe_get s.phase v = '\001' in
          enqueue s ((2 * v) + if pos then 0 else 1) no_reason
        end
      end
    done;
    (match !result with
    | Some Sat -> () (* keep trail so [value] can read the model *)
    | Some Unsat | None -> backtrack s 0);
    !result
  end

let solve ?assumptions s =
  match solve_internal ?assumptions ~conflict_limit:0 s with
  | Some r -> r
  | None -> assert false

(* The guard hook makes every bounded query governable: an injected
   exhaustion returns [None] without touching the solver state (callers
   already treat [None] as "no verdict", which is always sound), the
   budget's conflict ceiling caps the caller's own limit, and the
   cumulative budget both tightens the cap to what remains and refuses
   outright once spent. Conflicts consumed are reported back so the
   aggregate spend is tracked across calls. *)
let solve_limited ?(guard = Guard.none) ?assumptions ~conflict_limit s =
  if Guard.tick_sat guard ~site:"sat.solve_limited" then None
  else if Guard.sat_exhausted guard then None
  else begin
    let r =
      solve_internal ?assumptions
        ~conflict_limit:(Guard.sat_limit guard ~requested:conflict_limit)
        s
    in
    Guard.sat_spend guard ~conflicts:s.last_conflicts;
    r
  end

let value s v =
  assert (v > 0 && v <= s.nvars);
  s.assign.(v) = 1

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  reductions : int;
  learnts_live : int;
  learnts_deleted : int;
  minimized_lits : int;
  vivified_lits : int;
  arena_words : int;
  arena_peak_words : int;
}

let stats (s : t) =
  {
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
    restarts = s.restarts;
    reductions = s.reductions;
    learnts_live = s.n_learnts;
    learnts_deleted = s.learnts_deleted;
    minimized_lits = s.minimized_lits;
    vivified_lits = s.vivified_lits;
    arena_words = s.arena_size;
    arena_peak_words = s.arena_peak;
  }
