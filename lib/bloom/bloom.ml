module Id = Rofl_idspace.Id
module Sha256 = Rofl_crypto.Sha256

type t = {
  bits : Bytes.t;
  m : int; (* number of bits *)
  k : int;
  mutable n : int; (* insertions *)
}

let create ~m_bits ~k =
  if m_bits <= 0 then invalid_arg "Bloom.create: m_bits must be positive";
  if k < 1 || k > 32 then invalid_arg "Bloom.create: k out of range";
  { bits = Bytes.make ((m_bits + 7) / 8) '\000'; m = m_bits; k; n = 0 }

let create_optimal ~expected ~fpr =
  if expected <= 0 then invalid_arg "Bloom.create_optimal: expected must be positive";
  if fpr <= 0.0 || fpr >= 1.0 then invalid_arg "Bloom.create_optimal: fpr out of (0,1)";
  let n = float_of_int expected in
  let ln2 = log 2.0 in
  let m = Float.ceil (-.n *. log fpr /. (ln2 *. ln2)) in
  let k = max 1 (int_of_float (Float.round (m /. n *. ln2))) in
  create ~m_bits:(int_of_float m) ~k:(min k 32)

let m_bits f = f.m

let k f = f.k

let count f = f.n

(* Two independent 63-bit hashes derived from SHA-256 of the key; probe i is
   h1 + i*h2 mod m (double hashing). *)
let base_hashes key =
  let d = Sha256.digest key in
  let word off =
    let v = ref 0 in
    for i = 0 to 7 do
      v := (!v lsl 8) lor Char.code d.[off + i]
    done;
    !v land max_int
  in
  (word 0, word 8)

(* Double hashing steps incrementally: position i+1 is position i plus a
   fixed stride, both already reduced mod m, so no intermediate ever exceeds
   2m (the seed computed h1 + i*h2 in native ints, overflowed for large h2,
   and patched the negative remainder with [abs] — conflating the ±residues
   and collapsing distinct probe sequences).  The stride is drawn from
   [1, m-1] so a stride of 0 cannot pin all k probes to one bit. *)
let probe_start f (h1, _) = h1 mod f.m

let probe_stride f (_, h2) = if f.m = 1 then 0 else 1 + (h2 mod (f.m - 1))

let probe_next f pos stride =
  let next = pos + stride in
  if next >= f.m then next - f.m else next

let set_bit f pos =
  let byte = pos / 8 and bit = pos mod 8 in
  Bytes.set f.bits byte (Char.chr (Char.code (Bytes.get f.bits byte) lor (1 lsl bit)))

let get_bit f pos =
  let byte = pos / 8 and bit = pos mod 8 in
  Char.code (Bytes.get f.bits byte) land (1 lsl bit) <> 0

let add_string f s =
  let key = base_hashes s in
  let stride = probe_stride f key in
  let pos = ref (probe_start f key) in
  for _ = 1 to f.k do
    set_bit f !pos;
    pos := probe_next f !pos stride
  done;
  f.n <- f.n + 1

let mem_string f s =
  let key = base_hashes s in
  let stride = probe_stride f key in
  let rec go i pos =
    i >= f.k || (get_bit f pos && go (i + 1) (probe_next f pos stride))
  in
  go 0 (probe_start f key)

let probe_positions f s =
  let key = base_hashes s in
  let stride = probe_stride f key in
  let rec go i pos acc =
    if i >= f.k then List.rev acc else go (i + 1) (probe_next f pos stride) (pos :: acc)
  in
  go 0 (probe_start f key) []

let add f id = add_string f (Id.to_bytes id)

let mem f id = mem_string f (Id.to_bytes id)

let merge_into ~dst src =
  if dst.m <> src.m || dst.k <> src.k then
    invalid_arg "Bloom.merge_into: geometry mismatch";
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set dst.bits i
      (Char.chr (Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i)))
  done;
  dst.n <- dst.n + src.n

let estimated_fpr f =
  let kn = float_of_int (f.k * f.n) and m = float_of_int f.m in
  (1.0 -. exp (-.kn /. m)) ** float_of_int f.k

let fill_ratio f =
  let set = ref 0 in
  for i = 0 to f.m - 1 do
    if get_bit f i then incr set
  done;
  float_of_int !set /. float_of_int f.m

let copy f = { f with bits = Bytes.copy f.bits }

let clear f =
  Bytes.fill f.bits 0 (Bytes.length f.bits) '\000';
  f.n <- 0
