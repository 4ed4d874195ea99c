type t = { n : int; words : int64 array }

(* Precomputed single-word patterns for variables 0..5: variable [i] is the
   bit pattern with period [2^i]. *)
let var_masks =
  [| 0xAAAAAAAAAAAAAAAAL; 0xCCCCCCCCCCCCCCCCL; 0xF0F0F0F0F0F0F0F0L;
     0xFF00FF00FF00FF00L; 0xFFFF0000FFFF0000L; 0xFFFFFFFF00000000L |]

let words_for n = if n <= 6 then 1 else 1 lsl (n - 6)

(* Bits beyond [2^n] in the single-word case must stay zero so that
   [equal]/[count_ones] are exact. *)
let live_mask n =
  if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let normalize t =
  if t.n < 6 then t.words.(0) <- Int64.logand t.words.(0) (live_mask t.n);
  t

let create n =
  assert (n >= 0 && n <= 20);
  { n; words = Array.make (words_for n) 0L }

let num_vars t = t.n
let size t = 1 lsl t.n
let const_false = create

let const_true n =
  let t = { n; words = Array.make (words_for n) (-1L) } in
  normalize t

let var n i =
  assert (i >= 0 && i < n);
  let t = create n in
  if i < 6 then begin
    Array.fill t.words 0 (Array.length t.words) var_masks.(i);
    ignore (normalize t)
  end else begin
    let period = 1 lsl (i - 6) in
    for w = 0 to Array.length t.words - 1 do
      if w land period <> 0 then t.words.(w) <- -1L
    done
  end;
  t

let get_bit t m =
  assert (m >= 0 && m < size t);
  Int64.logand (Int64.shift_right_logical t.words.(m lsr 6) (m land 63)) 1L
  = 1L

let map2 f a b =
  assert (a.n = b.n);
  let words = Array.init (Array.length a.words) (fun i -> f a.words.(i) b.words.(i)) in
  normalize { n = a.n; words }

let map1 f a =
  let words = Array.map f a.words in
  normalize { n = a.n; words }

let lnot = map1 Int64.lognot
let land_ = map2 Int64.logand
let lor_ = map2 Int64.logor
let lxor_ = map2 Int64.logxor
let equiv a b = lnot (lxor_ a b)
let equal a b = a.n = b.n && a.words = b.words
let is_const_false t = Array.for_all (fun w -> w = 0L) t.words
let is_const_true t = equal t (const_true t.n)

let cofactor t i b =
  assert (i >= 0 && i < t.n);
  if i < 6 then begin
    let mask = if b then var_masks.(i) else Int64.lognot var_masks.(i) in
    let shift = 1 lsl i in
    let spread w =
      let kept = Int64.logand w mask in
      if b then Int64.logor kept (Int64.shift_right_logical kept shift)
      else Int64.logor kept (Int64.shift_left kept shift)
    in
    map1 spread t
  end else begin
    let period = 1 lsl (i - 6) in
    let words = Array.copy t.words in
    for w = 0 to Array.length words - 1 do
      let src = if b then w lor period else w land Stdlib.lnot period in
      words.(w) <- t.words.(src)
    done;
    normalize { n = t.n; words }
  end

let depends_on t i = not (equal (cofactor t i false) (cofactor t i true))

let support t =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if depends_on t i then i :: acc else acc)
  in
  loop (t.n - 1) []

let popcount w =
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    add (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

let count_ones t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(i)
  done;
  !c

let exists t i = lor_ (cofactor t i false) (cofactor t i true)

let compose t i g =
  let f0 = cofactor t i false and f1 = cofactor t i true in
  lor_ (land_ g f1) (land_ (lnot g) f0)

(* Every word of a cube's table is either zero or the same pattern over
   the low six variables; the high variables pick which words carry it. *)
let cube n ~mask ~bits =
  let t = create n in
  let low = ref (live_mask n) in
  for i = 0 to 5 do
    if mask land (1 lsl i) <> 0 then
      low :=
        Int64.logand !low
          (if bits land (1 lsl i) <> 0 then var_masks.(i)
           else Int64.lognot var_masks.(i))
  done;
  let hmask = mask lsr 6 and hbits = bits lsr 6 in
  for w = 0 to Array.length t.words - 1 do
    if w land hmask = hbits then t.words.(w) <- !low
  done;
  t

(* The growing cube's table is [low] on its carrier words, those whose
   index agrees with [m lsr 6] on the bits of [fixed], and zero on the
   others, as in [cube]; [inside] is the AND of [cover] over the
   carriers. Dropping variable [i < 6] adds [low] shifted across [i] on
   the carriers, so it fits when the shifted word is inside [inside].
   Dropping [i >= 6] adds [low] on the words whose index differs from a
   carrier's in bit [i - 6]. A literal that cannot be dropped from a
   cube cannot be dropped from a larger one either, so one pass reaches
   a prime. *)
let grow_cube cover ~minterm:m ~start =
  let n = cover.n and words = cover.words in
  let low = ref (Int64.shift_left 1L (m land 63)) in
  let fixed = ref (Array.length words - 1) in
  let inside = ref words.(m lsr 6) in
  let mask = ref ((1 lsl n) - 1) in
  for j = 0 to n - 1 do
    let i = if start + j < n then start + j else start + j - n in
    if i < 6 then begin
      let added =
        if (m lsr i) land 1 = 1 then Int64.shift_right_logical !low (1 lsl i)
        else Int64.shift_left !low (1 lsl i)
      in
      if Int64.logand added (Int64.lognot !inside) = 0L then begin
        low := Int64.logor !low added;
        mask := !mask land Stdlib.lnot (1 lsl i)
      end
    end else begin
      let flip = 1 lsl (i - 6) in
      let across = ref (-1L) in
      for w = 0 to Array.length words - 1 do
        if w land !fixed = (m lsr 6) land !fixed then
          across := Int64.logand !across words.(w lxor flip)
      done;
      if Int64.logand !low (Int64.lognot !across) = 0L then begin
        inside := Int64.logand !inside !across;
        fixed := !fixed land Stdlib.lnot flip;
        mask := !mask land Stdlib.lnot (1 lsl i)
      end
    end
  done;
  (!mask lsl n) lor (m land !mask)

let half t h =
  assert (t.n <= 6 && (h = 0 || h = 1));
  Int64.to_int
    (Int64.logand (Int64.shift_right_logical t.words.(0) (32 * h)) 0xFFFFFFFFL)

let of_fun n f =
  let t = create n in
  for m = 0 to (1 lsl n) - 1 do
    if f m then begin
      let w = m lsr 6 in
      t.words.(w) <- Int64.logor t.words.(w) (Int64.shift_left 1L (m land 63))
    end
  done;
  t

let of_words n words =
  assert (n >= 0 && n <= 20 && Array.length words = words_for n);
  normalize { n; words }

let permute t perm =
  assert (Array.length perm = t.n);
  of_fun t.n (fun m ->
      (* Build the source minterm by moving bit [i] of the result position
         back to original variable [i]. *)
      let src = ref 0 in
      for i = 0 to t.n - 1 do
        if (m lsr perm.(i)) land 1 = 1 then src := !src lor (1 lsl i)
      done;
      get_bit t !src)

let of_minterms n ms =
  let t = create n in
  List.iter
    (fun m ->
      assert (m >= 0 && m < 1 lsl n);
      let w = m lsr 6 in
      t.words.(w) <- Int64.logor t.words.(w) (Int64.shift_left 1L (m land 63)))
    ms;
  t

let minterms t =
  let rec loop m acc =
    if m < 0 then acc else loop (m - 1) (if get_bit t m then m :: acc else acc)
  in
  loop (size t - 1) []

let random st n =
  let t = create n in
  for w = 0 to Array.length t.words - 1 do
    t.words.(w) <- Random.State.int64 st Int64.max_int;
    if Random.State.bool st then t.words.(w) <- Int64.lognot t.words.(w)
  done;
  normalize t

let to_hex t =
  let buf = Buffer.create (Array.length t.words * 16) in
  for w = Array.length t.words - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%016Lx" t.words.(w))
  done;
  Buffer.contents buf

let pp ppf t = Format.fprintf ppf "tt<%d>:%s" t.n (to_hex t)
let hash t = Hashtbl.hash (t.n, t.words)

let compare a b =
  match Stdlib.compare a.n b.n with
  | 0 -> Stdlib.compare a.words b.words
  | c -> c

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
