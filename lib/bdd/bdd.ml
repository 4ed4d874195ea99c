(* CUDD-style hash-consed ROBDD manager with a flat node store and
   complement edges.

   Representation
   --------------
   An edge (the public [t]) is an int: [(node_id lsl 1) lor complement].
   Node 0 is the unique TRUE terminal, so [btrue = 0] and
   [bfalse = 1] (the complemented true edge); negation is one XOR.
   Internal nodes live in three growable int arrays indexed by node id
   ([var_], [lo_], [hi_]) instead of an algebraic tree type, so walking
   a BDD touches no boxed memory at all.

   Canonical form: no node has [lo = hi], and the complement bit never
   appears on a [hi] (then) edge — [mk] pushes it to the incoming edge,
   which keeps one canonical node per function-pair and makes [equal]
   one integer comparison.

   The unique table and the ite/restrict/compose caches are
   open-addressing tables over packed int keys (no tuple allocation on
   lookup). The op caches are lossy (overwrite on collision), bounded,
   power-of-two sized, and grow by doubling under pressure up to a cap;
   the unique table is exact (linear probing) and doubles at 50% load. *)

type t = int

(* ------------------------------------------------------------------ *)
(* Lossy open-addressing op cache over up-to-3-int keys.               *)
(* ------------------------------------------------------------------ *)

type cache = {
  mutable c_k1 : int array; (* -1 marks an empty slot *)
  mutable c_k2 : int array;
  mutable c_k3 : int array;
  mutable c_r : int array;
  mutable c_mask : int;
  mutable c_lookups : int;
  mutable c_hits : int;
  mutable c_inserts : int; (* since the last resize *)
  mutable c_grows : int;
  c_max_bits : int;
}

let cache_create bits max_bits =
  let n = 1 lsl bits in
  {
    c_k1 = Array.make n (-1);
    c_k2 = Array.make n 0;
    c_k3 = Array.make n 0;
    c_r = Array.make n 0;
    c_mask = n - 1;
    c_lookups = 0;
    c_hits = 0;
    c_inserts = 0;
    c_grows = 0;
    c_max_bits = max_bits;
  }

let[@inline] hash3 a b c =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (c * 0xC2B2AE3D) in
  h lxor (h lsr 17)

let[@inline] cache_find c k1 k2 k3 =
  c.c_lookups <- c.c_lookups + 1;
  let i = hash3 k1 k2 k3 land c.c_mask in
  if c.c_k1.(i) = k1 && c.c_k2.(i) = k2 && c.c_k3.(i) = k3 then begin
    c.c_hits <- c.c_hits + 1;
    c.c_r.(i)
  end
  else -1

let cache_grow c =
  c.c_grows <- c.c_grows + 1;
  let old_k1 = c.c_k1 and old_k2 = c.c_k2 in
  let old_k3 = c.c_k3 and old_r = c.c_r in
  let n = 2 * (c.c_mask + 1) in
  c.c_k1 <- Array.make n (-1);
  c.c_k2 <- Array.make n 0;
  c.c_k3 <- Array.make n 0;
  c.c_r <- Array.make n 0;
  c.c_mask <- n - 1;
  c.c_inserts <- 0;
  Array.iteri
    (fun i k1 ->
      if k1 >= 0 then begin
        let j = hash3 k1 old_k2.(i) old_k3.(i) land c.c_mask in
        c.c_k1.(j) <- k1;
        c.c_k2.(j) <- old_k2.(i);
        c.c_k3.(j) <- old_k3.(i);
        c.c_r.(j) <- old_r.(i)
      end)
    old_k1

let[@inline] cache_put c k1 k2 k3 r =
  c.c_inserts <- c.c_inserts + 1;
  if c.c_inserts > 2 * (c.c_mask + 1) && c.c_mask + 1 < 1 lsl c.c_max_bits
  then cache_grow c;
  let i = hash3 k1 k2 k3 land c.c_mask in
  c.c_k1.(i) <- k1;
  c.c_k2.(i) <- k2;
  c.c_k3.(i) <- k3;
  c.c_r.(i) <- r

let cache_clear c =
  Array.fill c.c_k1 0 (Array.length c.c_k1) (-1);
  c.c_inserts <- 0

(* ------------------------------------------------------------------ *)
(* Manager.                                                            *)
(* ------------------------------------------------------------------ *)

type man = {
  mutable var_ : int array; (* var_.(0) = max_int: terminal sentinel *)
  mutable lo_ : int array; (* else-edge, may carry the complement bit *)
  mutable hi_ : int array; (* then-edge, always regular *)
  mutable next : int; (* next free node id *)
  mutable unique : int array; (* node ids; 0 = empty slot *)
  mutable unique_mask : int;
  mutable unique_count : int;
  mutable unique_grows : int;
  mutable nvars : int;
  ite_cache : cache;
  restrict_cache : cache;
  compose_cache : cache;
  apply_memo : (string, int) Hashtbl.t;
  apply_memo_max : int;
  (* Per-manager scratch tables so size/satcount queries allocate
     nothing. Satisfying fractions of a node never change, so sat_done
     is a sticky flag; reachability marks use an epoch counter. *)
  mutable sat_val : float array;
  mutable sat_done : Bytes.t;
  mutable mark : int array;
  mutable mark_epoch : int;
  (* Resource governance: [ceiling] is the guard budget's hard node
     ceiling snapshot ([max_int] when unguarded), checked at the single
     allocation point so every public operation becomes cancellable. *)
  guard : Guard.t;
  ceiling : int;
}

let create ?(guard = Guard.none) () =
  let cap = 1024 in
  let var_ = Array.make cap 0 in
  var_.(0) <- max_int;
  {
    var_;
    lo_ = Array.make cap 0;
    hi_ = Array.make cap 0;
    next = 1;
    unique = Array.make (1 lsl 12) 0;
    unique_mask = (1 lsl 12) - 1;
    unique_count = 0;
    unique_grows = 0;
    nvars = 0;
    ite_cache = cache_create 14 20;
    restrict_cache = cache_create 10 18;
    compose_cache = cache_create 10 18;
    apply_memo = Hashtbl.create 256;
    apply_memo_max = 1 lsl 16;
    sat_val = [||];
    sat_done = Bytes.empty;
    mark = [||];
    mark_epoch = 0;
    guard;
    ceiling = Guard.bdd_ceiling guard;
  }

let bfalse _ = 1
let btrue _ = 0
let equal (a : t) (b : t) = a = b
let is_false _ f = f = 1
let is_true _ f = f = 0
let num_vars man = man.nvars

let[@inline] topvar man e = man.var_.(e lsr 1)

(* ------------------------------------------------------------------ *)
(* Node store and unique table.                                        *)
(* ------------------------------------------------------------------ *)

let grow_nodes man =
  let cap = Array.length man.var_ in
  let ncap = 2 * cap in
  let g a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  man.var_ <- g man.var_ 0;
  man.lo_ <- g man.lo_ 0;
  man.hi_ <- g man.hi_ 0

let unique_grow man =
  man.unique_grows <- man.unique_grows + 1;
  let n = 2 * (man.unique_mask + 1) in
  let tbl = Array.make n 0 in
  let mask = n - 1 in
  for id = 1 to man.next - 1 do
    let i = ref (hash3 man.var_.(id) man.lo_.(id) man.hi_.(id) land mask) in
    while tbl.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    tbl.(!i) <- id
  done;
  man.unique <- tbl;
  man.unique_mask <- mask

(* Find-or-create the node (v, lo, hi); requires [lo <> hi] and [hi]
   regular. Returns the regular edge to it. *)
let mk_node man v lo hi =
  let mask = man.unique_mask in
  let tbl = man.unique in
  let i = ref (hash3 v lo hi land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let id = tbl.(!i) in
    if id = 0 then begin
      if man.next >= man.ceiling then
        raise
          (Guard.Blowup
             { resource = Guard.Bdd_nodes; site = "bdd.mk_node";
               injected = false });
      if man.next >= Array.length man.var_ then grow_nodes man;
      let id = man.next in
      man.next <- id + 1;
      man.var_.(id) <- v;
      man.lo_.(id) <- lo;
      man.hi_.(id) <- hi;
      tbl.(!i) <- id;
      man.unique_count <- man.unique_count + 1;
      if 2 * man.unique_count > mask then unique_grow man;
      res := id
    end
    else if man.var_.(id) = v && man.lo_.(id) = lo && man.hi_.(id) = hi then
      res := id
    else i := (!i + 1) land mask
  done;
  !res lsl 1

let[@inline] mk man v lo hi =
  if lo = hi then lo
  else if hi land 1 = 1 then mk_node man v (lo lxor 1) (hi lxor 1) lxor 1
  else mk_node man v lo hi

let var man i =
  assert (i >= 0);
  if i >= man.nvars then man.nvars <- i + 1;
  mk man i 1 0

let bnot _ f = f lxor 1

(* Cofactors of edge [e] with respect to variable [v] (which must not be
   below [e]'s top variable). The complement bit distributes over both
   branches. *)
let[@inline] cof man v e =
  let id = e lsr 1 in
  if man.var_.(id) <> v then (e, e)
  else
    let c = e land 1 in
    (man.lo_.(id) lxor c, man.hi_.(id) lxor c)

(* The two halves of [cof], for walks that need no pair: the high
   cofactors are read only when the low ones ask for them. *)
let[@inline] cof_lo man v e =
  let id = e lsr 1 in
  if man.var_.(id) <> v then e else man.lo_.(id) lxor (e land 1)

let[@inline] cof_hi man v e =
  let id = e lsr 1 in
  if man.var_.(id) <> v then e else man.hi_.(id) lxor (e land 1)

(* ------------------------------------------------------------------ *)
(* ite and the derived connectives.                                    *)
(* ------------------------------------------------------------------ *)

let rec ite_rec man f g h =
  if f = 0 then g
  else if f = 1 then h
  else begin
    (* Arms equal to the selector collapse to constants. *)
    let g = if g = f then 0 else if g = f lxor 1 then 1 else g in
    let h = if h = f then 1 else if h = f lxor 1 then 0 else h in
    if g = h then g
    else if g = 0 && h = 1 then f
    else if g = 1 && h = 0 then f lxor 1
    else begin
      (* Canonicalize the triple: a regular selector (a complemented
         [f] swaps the arms), then a regular then-arm (a complemented
         [g] complements the whole result), so equivalent triples share
         one cache line and the cached result is always regular. *)
      let f, g, h = if f land 1 = 1 then (f lxor 1, h, g) else (f, g, h) in
      let compl_out = g land 1 in
      let g = g lxor compl_out and h = h lxor compl_out in
      let r = cache_find man.ite_cache f g h in
      if r >= 0 then r lxor compl_out
      else begin
        let v = min (topvar man f) (min (topvar man g) (topvar man h)) in
        let f0, f1 = cof man v f in
        let g0, g1 = cof man v g in
        let h0, h1 = cof man v h in
        let lo = ite_rec man f0 g0 h0 and hi = ite_rec man f1 g1 h1 in
        let r = mk man v lo hi in
        cache_put man.ite_cache f g h r;
        r lxor compl_out
      end
    end
  end

(* Public entry points tick the manager's guard once per call — the
   granularity at which injected faults land; the recursion stays
   tick-free so guarded and unguarded managers run the same code. *)
let ite man f g h =
  Guard.tick_bdd man.guard ~site:"bdd.ite";
  ite_rec man f g h

let band man f g = ite man f g 1
let bor man f g = ite man f 0 g
let bxor man f g = ite man f (g lxor 1) g

(* [f ∧ g = 0] by a joint cofactor walk that builds no node: it returns
   at the first path on which both are true. Verdicts share the ite
   cache under the ordered pair and a third key of -2; an ite triple's
   third key is an edge, never negative. *)
let disjoint_key = -2

let rec disjoint_rec man f g =
  if f = 1 || g = 1 || f = g lxor 1 then true
  else if f = 0 || g = 0 || f = g then false
  else begin
    let f, g = if f < g then (f, g) else (g, f) in
    let r = cache_find man.ite_cache f g disjoint_key in
    if r >= 0 then r = 1
    else begin
      let v = min (topvar man f) (topvar man g) in
      let d =
        disjoint_rec man (cof_lo man v f) (cof_lo man v g)
        && disjoint_rec man (cof_hi man v f) (cof_hi man v g)
      in
      cache_put man.ite_cache f g disjoint_key (if d then 1 else 0);
      d
    end
  end

(* One tick at [band]'s site: a test that replaces [is_false (band f g)]
   keeps injected faults on the same calls. *)
let disjoint man f g =
  Guard.tick_bdd man.guard ~site:"bdd.ite";
  disjoint_rec man f g

let implies man f g = disjoint man f (g lxor 1)

(* ------------------------------------------------------------------ *)
(* Cofactor, composition, quantification.                              *)
(* ------------------------------------------------------------------ *)

let restrict man f i b =
  Guard.tick_bdd man.guard ~site:"bdd.restrict";
  let bi = (i lsl 1) lor (if b then 1 else 0) in
  let rec go f =
    if f land lnot 1 = 0 then f
    else begin
      let id = f lsr 1 in
      let v = man.var_.(id) in
      if v > i then f
      else if v = i then
        (if b then man.hi_.(id) else man.lo_.(id)) lxor (f land 1)
      else begin
        let r = cache_find man.restrict_cache f bi 0 in
        if r >= 0 then r
        else begin
          let c = f land 1 in
          let lo = go (man.lo_.(id) lxor c) and hi = go (man.hi_.(id) lxor c) in
          let r = mk man v lo hi in
          cache_put man.restrict_cache f bi 0 r;
          r
        end
      end
    end
  in
  go f

let compose man f i g =
  Guard.tick_bdd man.guard ~site:"bdd.compose";
  let rec go f =
    if f land lnot 1 = 0 then f
    else begin
      let id = f lsr 1 in
      let v = man.var_.(id) in
      if v > i then f
      else begin
        let c = f land 1 in
        if v = i then ite_rec man g (man.hi_.(id) lxor c) (man.lo_.(id) lxor c)
        else begin
          let r = cache_find man.compose_cache f i g in
          if r >= 0 then r
          else begin
            let lo = go (man.lo_.(id) lxor c)
            and hi = go (man.hi_.(id) lxor c) in
            (* The substituted variable may rise above [v] in the order,
               so rebuild with ite on the branch variable. *)
            let xv = mk man v 1 0 in
            let r = ite_rec man xv hi lo in
            cache_put man.compose_cache f i g r;
            r
          end
        end
      end
    end
  in
  go f

let exists man vars f =
  List.fold_left
    (fun f i -> bor man (restrict man f i false) (restrict man f i true))
    f vars

(* ------------------------------------------------------------------ *)
(* Truth-table application.                                            *)
(* ------------------------------------------------------------------ *)

let apply_tt man tt args =
  assert (Array.length args = Logic.Tt.num_vars tt);
  Guard.tick_bdd man.guard ~site:"bdd.apply_tt";
  (* Memoized per (table, argument edges) in the manager: global node
     functions and window images are rebuilt with identical arguments
     throughout a decomposition, and every repeat is a table hit. *)
  let memo_key =
    let b = Buffer.create 64 in
    Buffer.add_string b (Logic.Tt.to_hex tt);
    Array.iter
      (fun a ->
        Buffer.add_char b '|';
        Buffer.add_string b (string_of_int a))
      args;
    Buffer.contents b
  in
  match Hashtbl.find_opt man.apply_memo memo_key with
  | Some r -> r
  | None ->
    (* Shannon-expand the truth table over its variables, binding each
       variable to the corresponding argument BDD. Memoized on the
       (sub-)table so shared subfunctions are built once. *)
    let cache = Hashtbl.create 64 in
    let rec go tt i =
      if Logic.Tt.is_const_false tt then 1
      else if Logic.Tt.is_const_true tt then 0
      else begin
        let key = (Logic.Tt.to_hex tt, i) in
        match Hashtbl.find_opt cache key with
        | Some r -> r
        | None ->
          let r =
            if not (Logic.Tt.depends_on tt i) then go tt (i + 1)
            else
              let f0 = go (Logic.Tt.cofactor tt i false) (i + 1) in
              let f1 = go (Logic.Tt.cofactor tt i true) (i + 1) in
              ite_rec man args.(i) f1 f0
          in
          Hashtbl.replace cache key r;
          r
      end
    in
    let r = go tt 0 in
    if Hashtbl.length man.apply_memo >= man.apply_memo_max then
      Hashtbl.reset man.apply_memo;
    Hashtbl.add man.apply_memo memo_key r;
    r

(* ------------------------------------------------------------------ *)
(* Counting and inspection.                                            *)
(* ------------------------------------------------------------------ *)

let ensure_sat_scratch man =
  if Bytes.length man.sat_done < man.next then begin
    let cap = Array.length man.var_ in
    let v = Array.make cap 0.0 in
    let d = Bytes.make cap '\000' in
    Array.blit man.sat_val 0 v 0 (Array.length man.sat_val);
    Bytes.blit man.sat_done 0 d 0 (Bytes.length man.sat_done);
    man.sat_val <- v;
    man.sat_done <- d
  end

let satcount man ~nvars f =
  ensure_sat_scratch man;
  (* Satisfying fraction of the regular edge to [e]'s node, memoized for
     the manager's lifetime (node structure is immutable). *)
  let rec frac e =
    if e = 0 then 1.0
    else if e = 1 then 0.0
    else begin
      let id = e lsr 1 in
      let v =
        if Bytes.unsafe_get man.sat_done id = '\001' then man.sat_val.(id)
        else begin
          let r = 0.5 *. (frac man.lo_.(id) +. frac man.hi_.(id)) in
          man.sat_val.(id) <- r;
          Bytes.unsafe_set man.sat_done id '\001';
          r
        end
      in
      if e land 1 = 1 then 1.0 -. v else v
    end
  in
  frac f *. (2.0 ** float_of_int nvars)

let any_sat man f =
  let rec go e acc =
    if e = 0 then Some (List.rev acc)
    else if e = 1 then None
    else begin
      let id = e lsr 1 and c = e land 1 in
      let v = man.var_.(id) in
      match go (man.hi_.(id) lxor c) ((v, true) :: acc) with
      | Some r -> Some r
      | None -> go (man.lo_.(id) lxor c) ((v, false) :: acc)
    end
  in
  go f []

let ensure_mark man =
  if Array.length man.mark < man.next then begin
    let cap = Array.length man.var_ in
    let m = Array.make cap 0 in
    Array.blit man.mark 0 m 0 (Array.length man.mark);
    man.mark <- m
  end

let size man f =
  ensure_mark man;
  man.mark_epoch <- man.mark_epoch + 1;
  let ep = man.mark_epoch in
  let n = ref 0 in
  let rec go e =
    let id = e lsr 1 in
    if id <> 0 && man.mark.(id) <> ep then begin
      man.mark.(id) <- ep;
      incr n;
      go man.lo_.(id);
      go man.hi_.(id)
    end
  in
  go f;
  !n

let support man f =
  ensure_mark man;
  man.mark_epoch <- man.mark_epoch + 1;
  let ep = man.mark_epoch in
  let vars = Hashtbl.create 16 in
  let rec go e =
    let id = e lsr 1 in
    if id <> 0 && man.mark.(id) <> ep then begin
      man.mark.(id) <- ep;
      Hashtbl.replace vars man.var_.(id) ();
      go man.lo_.(id);
      go man.hi_.(id)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

(* ------------------------------------------------------------------ *)
(* Stats, cache control, invariants.                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  live_nodes : int;
  total_allocated : int;
  unique_capacity : int;
  unique_growths : int;
  ite_cache_capacity : int;
  ite_lookups : int;
  ite_hits : int;
  ite_cache_growths : int;
  restrict_cache_capacity : int;
  restrict_lookups : int;
  restrict_hits : int;
  restrict_cache_growths : int;
  compose_cache_capacity : int;
  compose_lookups : int;
  compose_hits : int;
  compose_cache_growths : int;
  apply_memo_entries : int;
}

let stats man =
  {
    live_nodes = man.next - 1;
    total_allocated = man.next;
    unique_capacity = man.unique_mask + 1;
    unique_growths = man.unique_grows;
    ite_cache_capacity = man.ite_cache.c_mask + 1;
    ite_lookups = man.ite_cache.c_lookups;
    ite_hits = man.ite_cache.c_hits;
    ite_cache_growths = man.ite_cache.c_grows;
    restrict_cache_capacity = man.restrict_cache.c_mask + 1;
    restrict_lookups = man.restrict_cache.c_lookups;
    restrict_hits = man.restrict_cache.c_hits;
    restrict_cache_growths = man.restrict_cache.c_grows;
    compose_cache_capacity = man.compose_cache.c_mask + 1;
    compose_lookups = man.compose_cache.c_lookups;
    compose_hits = man.compose_cache.c_hits;
    compose_cache_growths = man.compose_cache.c_grows;
    apply_memo_entries = Hashtbl.length man.apply_memo;
  }

let clear_caches man =
  cache_clear man.ite_cache;
  cache_clear man.restrict_cache;
  cache_clear man.compose_cache;
  Hashtbl.reset man.apply_memo;
  (* The satcount scratch is a per-node memo too: drop it (it rebuilds
     lazily at full store size). *)
  man.sat_val <- [||];
  man.sat_done <- Bytes.empty

let check_canonical man =
  let ok = ref true in
  for id = 1 to man.next - 1 do
    let v = man.var_.(id) and lo = man.lo_.(id) and hi = man.hi_.(id) in
    if lo = hi then ok := false;
    if hi land 1 = 1 then ok := false;
    if v >= man.var_.(lo lsr 1) || v >= man.var_.(hi lsr 1) then ok := false
  done;
  !ok
