(* Minato-Morreale ISOP. Returns both the cover and the truth table of the
   cover so callers can rely on lower <= cover <= upper. *)
let rec isop_rec lower upper vars =
  if Tt.is_const_false lower then ([], Tt.const_false (Tt.num_vars lower))
  else
    match vars with
    | [] ->
      (* No variable left to split on: lower is non-empty and constant in
         all remaining vars, so upper must be the constant-true function. *)
      ([ Cube.top ], Tt.const_true (Tt.num_vars lower))
    | x :: rest ->
      if not (Tt.depends_on lower x || Tt.depends_on upper x) then
        isop_rec lower upper rest
      else begin
        let l0 = Tt.cofactor lower x false and l1 = Tt.cofactor lower x true in
        let u0 = Tt.cofactor upper x false and u1 = Tt.cofactor upper x true in
        let c0, f0 = isop_rec (Tt.land_ l0 (Tt.lnot u1)) u0 rest in
        let c1, f1 = isop_rec (Tt.land_ l1 (Tt.lnot u0)) u1 rest in
        let lnew =
          Tt.lor_ (Tt.land_ l0 (Tt.lnot f0)) (Tt.land_ l1 (Tt.lnot f1))
        in
        let cd, fd = isop_rec lnew (Tt.land_ u0 u1) rest in
        let cubes =
          List.map (fun c -> Cube.with_literal c x false) c0
          @ List.map (fun c -> Cube.with_literal c x true) c1
          @ cd
        in
        let xt = Tt.var (Tt.num_vars lower) x in
        let cover =
          Tt.lor_ fd
            (Tt.lor_ (Tt.land_ (Tt.lnot xt) f0) (Tt.land_ xt f1))
        in
        (cubes, cover)
      end

let isop ~lower ~upper =
  assert (Tt.is_const_false (Tt.land_ lower (Tt.lnot upper)));
  let n = Tt.num_vars lower in
  let vars = List.init n (fun i -> i) in
  let cubes, _ = isop_rec lower upper vars in
  Sop.make n cubes

(* Tables of more than 6 variables. The primes grown from every on-set
   minterm in the cyclic orders that start at variables 0 .. 4, without
   repeats and sorted by [Cube.compare] (mask, then bits), which is the
   order of the packed keys. This is not every prime: on some functions
   no such order reaches one. *)
let wide_primes ~on ~dc =
  let n = Tt.num_vars on in
  let cover = Tt.lor_ on dc in
  let starts = max 1 (min n 5) in
  let keys = ref [] in
  for m = 0 to Tt.size on - 1 do
    if Tt.get_bit on m then
      for start = 0 to starts - 1 do
        keys := Tt.grow_cube cover ~minterm:m ~start :: !keys
      done
  done;
  let bits_of = (1 lsl n) - 1 in
  List.map
    (fun key -> { Cube.mask = key lsr n; bits = key land bits_of })
    (List.sort_uniq Int.compare !keys)

(* Cover the on-set with primes: essential primes in ascending order of
   the minterm each solely covers, then greedy picks (first prime with the
   largest gain), then a redundancy pass over [Hashtbl.fold] order of the
   chosen set. Each prime is handled as the bitset of the on-set minterms
   it covers. *)
let wide_cover ~on ~dc =
  let n = Tt.num_vars on in
  if Tt.is_const_false on then Sop.const_false n
  else if Tt.is_const_true (Tt.lor_ on dc) then Sop.const_true n
  else begin
    let ps = Array.of_list (wide_primes ~on ~dc) in
    let covers = Array.map (fun c -> Tt.land_ (Cube.to_tt n c) on) ps in
    let chosen = Hashtbl.create 16 in
    let remaining = ref on in
    let choose i =
      Hashtbl.replace chosen i ();
      remaining := Tt.land_ !remaining (Tt.lnot covers.(i))
    in
    let once = ref (Tt.const_false n) and twice = ref (Tt.const_false n) in
    Array.iter
      (fun c ->
        twice := Tt.lor_ !twice (Tt.land_ !once c);
        once := Tt.lor_ !once c)
      covers;
    let sole = Tt.land_ !once (Tt.lnot !twice) in
    for m = 0 to Tt.size on - 1 do
      if Tt.get_bit sole m && Tt.get_bit !remaining m then begin
        let i = ref 0 in
        while not (Tt.get_bit covers.(!i) m) do incr i done;
        choose !i
      end
    done;
    let gain i = Tt.count_ones (Tt.land_ covers.(i) !remaining) in
    let rec greedy () =
      if not (Tt.is_const_false !remaining) then begin
        let best = ref 0 and best_gain = ref (gain 0) in
        for i = 1 to Array.length ps - 1 do
          let g = gain i in
          if g > !best_gain then begin
            best := i;
            best_gain := g
          end
        done;
        if !best_gain > 0 then begin
          choose !best;
          greedy ()
        end
      end
    in
    greedy ();
    let selected = Hashtbl.fold (fun i () acc -> i :: acc) chosen [] in
    let drop_if_redundant kept i =
      let others = List.filter (fun j -> j <> i) kept in
      let union =
        List.fold_left (fun acc j -> Tt.lor_ acc covers.(j)) (Tt.const_false n) others
      in
      if Tt.equal union on then others else kept
    in
    let irredundant = List.fold_left drop_if_redundant selected selected in
    Sop.make n (List.map (fun i -> ps.(i)) irredundant)
  end

(* Tables of at most 6 variables run on native ints: a table is two
   halves, [lo] for minterms 0-31 and [hi] for 32-63, as [Tt.half]
   gives them. The primes, the cover and its cube order are those of
   the wide path above, step for step (DESIGN.md §4 "Minimum covers"). *)

let pat32 = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]
let live_lo n = if n >= 5 then 0xFFFFFFFF else (1 lsl (1 lsl n)) - 1
let live_hi n = if n = 6 then 0xFFFFFFFF else 0
let bit_of lo hi m = if m < 32 then (lo lsr m) land 1 else (hi lsr (m - 32)) land 1

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

(* At most 5 primes per on-set minterm, and a chosen prime covers at
   least one minterm that no earlier one did. *)
let max_primes = 64 * 5

(* [Hashtbl.hash] of every prime index, for the chosen set's order. *)
let int_hash = Array.init max_primes Hashtbl.hash

(* One per domain: pool workers call [min_sops] concurrently. [impl]
   is the implicant table, [stamp] marks the keys of one call's primes,
   [keys] holds them, [cov_lo]/[cov_hi] the on-set minterms each covers;
   [chosen] is the chosen set in the order it was chosen, [sel] in
   [Hashtbl.fold] order, [kept] its survivors of the redundancy pass. *)
type scratch = {
  impl : Bytes.t;
  stamp : int array;
  mutable call : int;
  keys : int array;
  cov_lo : int array;
  cov_hi : int array;
  chosen : int array;
  sel : int array;
  kept : Bytes.t;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        impl = Bytes.create 4096;
        stamp = Array.make 4096 0;
        call = 0;
        keys = Array.make max_primes 0;
        cov_lo = Array.make max_primes 0;
        cov_hi = Array.make max_primes 0;
        chosen = Array.make 64 0;
        sel = Array.make 64 0;
        kept = Bytes.create 64;
      })

(* Entry [(free lsl 6) lor values] of [impl] is 1 when the cube with
   free variables [free] and the bound ones at [values] (0 on [free])
   lies inside [care]. A cube is inside when both halves across its
   lowest free variable are, so one pass over [free] ascending fills
   the table from the minterms up. *)
let fill_implicants impl n ~care_lo ~care_hi =
  let full = (1 lsl n) - 1 in
  for v = 0 to full do
    Bytes.unsafe_set impl v (Char.unsafe_chr (bit_of care_lo care_hi v))
  done;
  for free = 1 to full do
    let low = free land -free in
    let base = (free lxor low) lsl 6 and row = free lsl 6 in
    let comp = full lxor free in
    (* Every [v] inside [comp], from [comp] down to 0. *)
    let v = ref comp and last = ref false in
    while not !last do
      let inside =
        Char.code (Bytes.unsafe_get impl (base lor !v))
        land Char.code (Bytes.unsafe_get impl (base lor !v lor low))
      in
      Bytes.unsafe_set impl (row lor !v) (Char.unsafe_chr inside);
      if !v = 0 then last := true else v := (!v - 1) land comp
    done
  done

(* [Tt.grow_cube] on the implicant table: the literals of minterm [m]
   are dropped in the cyclic order from [start] while the cube stays
   inside the care set, and the prime is packed as
   [(mask lsl n) lor bits]. *)
let grow impl n m start =
  let free = ref 0 and v = ref m in
  for j = 0 to n - 1 do
    let bit = 1 lsl (if start + j < n then start + j else start + j - n) in
    let free' = !free lor bit and v' = !v land lnot bit in
    if Bytes.unsafe_get impl ((free' lsl 6) lor v') <> '\000' then begin
      free := free';
      v := v'
    end
  done;
  ((((1 lsl n) - 1) lxor !free) lsl n) lor !v

(* The primes grown from every on-set minterm, as [wide_primes] grows
   them, into [s.keys] in ascending order; returns their number. The
   implicant table must hold the care set. *)
let small_primes s n ~on_lo ~on_hi =
  s.call <- s.call + 1;
  let call = s.call and stamp = s.stamp and keys = s.keys in
  let starts = max 1 (min n 5) and np = ref 0 in
  for m = 0 to (1 lsl n) - 1 do
    if bit_of on_lo on_hi m = 1 then
      for start = 0 to starts - 1 do
        let key = grow s.impl n m start in
        if stamp.(key) <> call then begin
          stamp.(key) <- call;
          keys.(!np) <- key;
          incr np
        end
      done
  done;
  for i = 1 to !np - 1 do
    let key = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && keys.(!j) > key do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- key
  done;
  !np

let cube_of_key n key = { Cube.mask = key lsr n; bits = key land ((1 lsl n) - 1) }

(* [wide_cover] on native ints. *)
let small_cover s n ~on_lo ~on_hi ~care_lo ~care_hi =
  if on_lo lor on_hi = 0 then Sop.const_false n
  else if care_lo = live_lo n && care_hi = live_hi n then Sop.const_true n
  else begin
    fill_implicants s.impl n ~care_lo ~care_hi;
    let np = small_primes s n ~on_lo ~on_hi in
    let keys = s.keys and cov_lo = s.cov_lo and cov_hi = s.cov_hi in
    let once_lo = ref 0 and once_hi = ref 0 in
    let twice_lo = ref 0 and twice_hi = ref 0 in
    for p = 0 to np - 1 do
      (* The on-set minterms of the cube: bits [i < n] of [key] are its
         values, bits [n + i] its mask. *)
      let key = keys.(p) in
      let mask = key lsr n in
      let lo = ref on_lo and hi = ref on_hi in
      for i = 0 to min n 5 - 1 do
        if (mask lsr i) land 1 = 1 then begin
          let pat = if (key lsr i) land 1 = 1 then pat32.(i) else lnot pat32.(i) in
          lo := !lo land pat;
          hi := !hi land pat
        end
      done;
      if (mask lsr 5) land 1 = 1 then if (key lsr 5) land 1 = 1 then lo := 0 else hi := 0;
      cov_lo.(p) <- !lo;
      cov_hi.(p) <- !hi;
      twice_lo := !twice_lo lor (!once_lo land !lo);
      twice_hi := !twice_hi lor (!once_hi land !hi);
      once_lo := !once_lo lor !lo;
      once_hi := !once_hi lor !hi
    done;
    let sole_lo = !once_lo land lnot !twice_lo and sole_hi = !once_hi land lnot !twice_hi in
    let rem_lo = ref on_lo and rem_hi = ref on_hi and k = ref 0 in
    let choose p =
      s.chosen.(!k) <- p;
      incr k;
      rem_lo := !rem_lo land lnot cov_lo.(p);
      rem_hi := !rem_hi land lnot cov_hi.(p)
    in
    for m = 0 to (1 lsl n) - 1 do
      if bit_of sole_lo sole_hi m = 1 && bit_of !rem_lo !rem_hi m = 1 then begin
        let p = ref 0 in
        while bit_of cov_lo.(!p) cov_hi.(!p) m = 0 do incr p done;
        choose !p
      end
    done;
    let gain p = popcount32 (cov_lo.(p) land !rem_lo) + popcount32 (cov_hi.(p) land !rem_hi) in
    let rec greedy () =
      if !rem_lo lor !rem_hi <> 0 then begin
        let best = ref 0 and best_gain = ref (gain 0) in
        for p = 1 to np - 1 do
          let g = gain p in
          if g > !best_gain then begin
            best := p;
            best_gain := g
          end
        done;
        if !best_gain > 0 then begin
          choose !best;
          greedy ()
        end
      end
    in
    greedy ();
    (* The order [Hashtbl.fold (fun i () acc -> i :: acc)] gives over a
       [Hashtbl.create 16] that the chosen primes were added to in turn:
       buckets descending by [Hashtbl.hash], the oldest key first within
       a bucket; the table doubles past twice as many keys as buckets. *)
    let k = !k and sel = s.sel and kept = s.kept in
    let buckets = ref 16 in
    while k > 2 * !buckets do buckets := 2 * !buckets done;
    let q = ref 0 in
    for b = !buckets - 1 downto 0 do
      for r = 0 to k - 1 do
        let p = s.chosen.(r) in
        if int_hash.(p) land (!buckets - 1) = b then begin
          sel.(!q) <- p;
          incr q
        end
      done
    done;
    Bytes.fill kept 0 k '\001';
    for q = 0 to k - 1 do
      let u_lo = ref 0 and u_hi = ref 0 in
      for r = 0 to k - 1 do
        if r <> q && Bytes.get kept r = '\001' then begin
          u_lo := !u_lo lor cov_lo.(sel.(r));
          u_hi := !u_hi lor cov_hi.(sel.(r))
        end
      done;
      if !u_lo = on_lo && !u_hi = on_hi then Bytes.set kept q '\000'
    done;
    let cubes = ref [] in
    for q = k - 1 downto 0 do
      if Bytes.get kept q = '\001' then cubes := cube_of_key n keys.(sel.(q)) :: !cubes
    done;
    Sop.make n !cubes
  end

let primes ~on ~dc =
  let n = Tt.num_vars on in
  if n > 6 then wide_primes ~on ~dc
  else begin
    assert (Tt.num_vars dc = n);
    let s = Domain.DLS.get scratch in
    let on_lo = Tt.half on 0 and on_hi = Tt.half on 1 in
    fill_implicants s.impl n ~care_lo:(on_lo lor Tt.half dc 0)
      ~care_hi:(on_hi lor Tt.half dc 1);
    let np = small_primes s n ~on_lo ~on_hi in
    List.init np (fun p -> cube_of_key n s.keys.(p))
  end

let minimum_cover ~on ~dc =
  let n = Tt.num_vars on in
  if n > 6 then wide_cover ~on ~dc
  else begin
    assert (Tt.num_vars dc = n);
    let on_lo = Tt.half on 0 and on_hi = Tt.half on 1 in
    small_cover (Domain.DLS.get scratch) n ~on_lo ~on_hi
      ~care_lo:(on_lo lor Tt.half dc 0) ~care_hi:(on_hi lor Tt.half dc 1)
  end

(* min_sops is in the inner loop of the level quantification and of cut
   rewriting, and node functions repeat massively across calls, so the
   covers are memoized by truth table. Each domain keeps its own table,
   because pool workers and portfolio arms call this concurrently, and
   empties it past 200 k entries; a process running N domains can hold
   N such tables. *)
let memo : (Sop.t * Sop.t) Tt.Tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Tt.Tbl.create 4096)

let min_sops f =
  let memo = Domain.DLS.get memo in
  match Tt.Tbl.find_opt memo f with
  | Some r -> r
  | None ->
    let n = Tt.num_vars f in
    let r =
      if n > 6 then begin
        let dc = Tt.const_false n in
        (wide_cover ~on:f ~dc, wide_cover ~on:(Tt.lnot f) ~dc)
      end
      else begin
        let s = Domain.DLS.get scratch in
        let lo = Tt.half f 0 and hi = Tt.half f 1 in
        let off_lo = live_lo n lxor lo and off_hi = live_hi n lxor hi in
        ( small_cover s n ~on_lo:lo ~on_hi:hi ~care_lo:lo ~care_hi:hi,
          small_cover s n ~on_lo:off_lo ~on_hi:off_hi ~care_lo:off_lo ~care_hi:off_hi )
      end
    in
    if Tt.Tbl.length memo > 200_000 then Tt.Tbl.reset memo;
    Tt.Tbl.add memo f r;
    r
