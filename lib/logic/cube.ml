type t = { mask : int; bits : int }

let top = { mask = 0; bits = 0 }

let of_literals lits =
  List.fold_left
    (fun c (i, b) ->
      assert (i >= 0 && i < 30);
      { mask = c.mask lor (1 lsl i);
        bits = (if b then c.bits lor (1 lsl i) else c.bits land lnot (1 lsl i)) })
    top lits

(* Stops at the highest bound variable. *)
let literals c =
  let rec go m i =
    if m = 0 then []
    else if m land 1 = 0 then go (m lsr 1) (i + 1)
    else (i, (c.bits lsr i) land 1 = 1) :: go (m lsr 1) (i + 1)
  in
  go c.mask 0

let num_literals c =
  let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1) in
  popcount c.mask 0

let mem c m = m land c.mask = c.bits
let contains c d = d.mask land c.mask = c.mask && d.bits land c.mask = c.bits

let intersect c d =
  let shared = c.mask land d.mask in
  if c.bits land shared <> d.bits land shared then None
  else Some { mask = c.mask lor d.mask; bits = c.bits lor d.bits }

let cofactor c i b =
  let bit = 1 lsl i in
  if c.mask land bit = 0 then Some c
  else if (c.bits land bit <> 0) = b then
    Some { mask = c.mask land lnot bit; bits = c.bits land lnot bit }
  else None

let with_literal c i b =
  let bit = 1 lsl i in
  { mask = c.mask lor bit; bits = (if b then c.bits lor bit else c.bits land lnot bit) }

let to_tt n c = Tt.cube n ~mask:c.mask ~bits:c.bits
let minterm_count n c = 1 lsl (n - num_literals c)
let equal a b = a.mask = b.mask && a.bits = b.bits
let compare = Stdlib.compare

let to_string n c =
  String.init n (fun i ->
      if c.mask land (1 lsl i) = 0 then '-'
      else if c.bits land (1 lsl i) <> 0 then '1'
      else '0')

let pp ppf c =
  let lits = literals c in
  if lits = [] then Format.pp_print_string ppf "1"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
      (fun ppf (i, b) -> Format.fprintf ppf "%sx%d" (if b then "" else "~") i)
      ppf lits
