type t = { hi : int64; lo : int64 }

let zero = { hi = 0L; lo = 0L }

let of_int64_pair hi lo = { hi; lo }

let of_int n =
  if n < 0 then invalid_arg "Id.of_int: negative";
  { hi = 0L; lo = Int64.of_int n }

(* ---- allocation-free core ------------------------------------------------

   Everything the greedy walk evaluates per candidate lives below this line
   and must not allocate.  The discipline (see DESIGN.md):

   - never build an intermediate [t]; compute on raw [hi]/[lo] words inside
     a single function so the compiler keeps the int64 temporaries in
     registers (cross-function int64 returns are boxed);
   - unsigned comparison is sign-bit flip + the native signed operators,
     which specialise to register compares — not [Int64.unsigned_compare],
     whose tuple-free path still goes through a function call per word. *)

let[@inline] uflip (x : int64) = Int64.logxor x Int64.min_int

let[@inline] ult (a : int64) (b : int64) = uflip a < uflip b

let[@inline] ule (a : int64) (b : int64) = uflip a <= uflip b

(* Words of the clockwise distance a -> b (i.e. b - a mod 2^128), kept
   separate so callers can compare distances without materialising them. *)
let[@inline] dist_lo (a : t) (b : t) = Int64.sub b.lo a.lo

let[@inline] dist_hi (a : t) (b : t) =
  let h = Int64.sub b.hi a.hi in
  if ult b.lo a.lo then Int64.sub h 1L else h

let compare a b =
  let ha = uflip a.hi and hb = uflip b.hi in
  if ha < hb then -1
  else if ha > hb then 1
  else begin
    let la = uflip a.lo and lb = uflip b.lo in
    if la < lb then -1 else if la > lb then 1 else 0
  end

let equal a b = a.hi = b.hi && a.lo = b.lo

(* Top 62 bits of the linear order as an immediate int in [0, 2^62):
   [key x < key y] implies [compare x y < 0], and [key x <> key y] decides
   the order without touching the low word.  Flat search structures
   binary-search over contiguous [int array]s of these and fall back to
   [compare] only on key ties (for SHA-derived ids, a ~2^-62 event per
   pair).  Keys are kept non-negative so differences of two keys fit the
   63-bit int — branchless searches turn the sign of a difference into a
   select mask.  No [uflip] here: {!compare} is the UNSIGNED order of the
   raw words (the flip only exists to express it through signed compares),
   so the monotone projection is a plain logical shift of [hi]. *)
let[@inline] key (t : t) = Int64.to_int (Int64.shift_right_logical t.hi 2)

let key_mask = (1 lsl 62) - 1

(* Mixed-word avalanche over both words directly; the previous
   [Hashtbl.hash (a.hi, a.lo)] boxed a tuple per call. *)
let hash a =
  let h =
    Int64.logxor
      (Int64.mul a.hi 0x9E3779B97F4A7C15L)
      (Int64.mul a.lo 0xC2B2AE3D27D4EB4FL)
  in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul h 0xBF58476D1CE4E5B9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  Int64.to_int h land max_int

let add a b =
  let lo = Int64.add a.lo b.lo in
  let carry = if ult lo a.lo then 1L else 0L in
  { hi = Int64.add (Int64.add a.hi b.hi) carry; lo }

let sub a b =
  let lo = Int64.sub a.lo b.lo in
  let borrow = if ult a.lo b.lo then 1L else 0L in
  { hi = Int64.sub (Int64.sub a.hi b.hi) borrow; lo }

let succ_id a = add a { hi = 0L; lo = 1L }

let pred_id a = sub a { hi = 0L; lo = 1L }

let distance a b = sub b a

(* x in (a, b) clockwise.  The interval (a, a) is the full ring minus a. *)
let between a x b =
  if equal a b then not (equal x a)
  else begin
    let dxh = dist_hi a x and dxl = dist_lo a x in
    if dxh = 0L && dxl = 0L then false
    else begin
      let dbh = dist_hi a b and dbl = dist_lo a b in
      ult dxh dbh || (dxh = dbh && ult dxl dbl)
    end
  end

let between_incl a x b =
  if equal a b then true
  else begin
    let dxh = dist_hi a x and dxl = dist_lo a x in
    if dxh = 0L && dxl = 0L then false
    else begin
      let dbh = dist_hi a b and dbl = dist_lo a b in
      ult dxh dbh || (dxh = dbh && ule dxl dbl)
    end
  end

let closer_clockwise ~target x y =
  let dxh = dist_hi x target and dyh = dist_hi y target in
  if dxh = dyh then ult (dist_lo x target) (dist_lo y target) else ult dxh dyh

(* Why unequal positive key distances decide: see the interface. *)
let closer_clockwise_keyed ~target dx x dy y =
  if dx > 0 && dy > 0 && dx <> dy then dx < dy else closer_clockwise ~target x y

let compare_dist a b c d =
  let h1 = uflip (dist_hi a b) and h2 = uflip (dist_hi c d) in
  if h1 < h2 then -1
  else if h1 > h2 then 1
  else begin
    let l1 = uflip (dist_lo a b) and l2 = uflip (dist_lo c d) in
    if l1 < l2 then -1 else if l1 > l2 then 1 else 0
  end

let bit id i =
  if i < 0 || i > 127 then invalid_arg "Id.bit: index out of range";
  let word, off = if i < 64 then (id.hi, 63 - i) else (id.lo, 127 - i) in
  Int64.to_int (Int64.logand (Int64.shift_right_logical word off) 1L)

let random g =
  { hi = Rofl_util.Prng.bits64 g; lo = Rofl_util.Prng.bits64 g }

(* The block is never written again, so it becomes the string itself. *)
let to_bytes id =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 id.hi;
  Bytes.set_int64_be b 8 id.lo;
  Bytes.unsafe_to_string b

let is_prefix_of id b =
  Int64.equal (Bytes.get_int64_be b 0) id.hi && Int64.equal (Bytes.get_int64_be b 8) id.lo

let of_bytes_exn s =
  if String.length s <> 16 then invalid_arg "Id.of_bytes_exn: need 16 bytes";
  { hi = String.get_int64_be s 0; lo = String.get_int64_be s 8 }

let to_hex id = Printf.sprintf "%016Lx%016Lx" id.hi id.lo

let to_short_string id = String.sub (to_hex id) 0 8
