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

(* The primes grown from every on-set minterm in the cyclic orders that
   start at variables 0 .. min(n, 4) (n distinct orders when n <= 4),
   without repeats and sorted by [Cube.compare] (mask, then bits), which
   is the order of the packed keys. This is not every prime: on some
   functions no such order reaches one. *)
let primes ~on ~dc =
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
let minimum_cover ~on ~dc =
  let n = Tt.num_vars on in
  if Tt.is_const_false on then Sop.const_false n
  else if Tt.is_const_true (Tt.lor_ on dc) then Sop.const_true n
  else begin
    let ps = Array.of_list (primes ~on ~dc) in
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
    let dc = Tt.const_false n in
    let r = (minimum_cover ~on:f ~dc, minimum_cover ~on:(Tt.lnot f) ~dc) in
    if Tt.Tbl.length memo > 200_000 then Tt.Tbl.reset memo;
    Tt.Tbl.add memo f r;
    r
