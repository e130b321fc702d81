type t = { bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let size b = b.n

let check b i = if i < 0 || i >= b.n then invalid_arg "Bitset: index out of range"

let set b i =
  check b i;
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set b.bits byte (Char.chr (Char.code (Bytes.get b.bits byte) lor (1 lsl bit)))

let mem b i =
  check b i;
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get b.bits byte) land (1 lsl bit) <> 0

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let cardinal b =
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + popcount_byte c) b.bits;
  !total

let union_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitset.union_into: size mismatch";
  for i = 0 to Bytes.length dst.bits - 1 do
    Bytes.set dst.bits i
      (Char.chr (Char.code (Bytes.get dst.bits i) lor Char.code (Bytes.get src.bits i)))
  done

let inter a b =
  if a.n <> b.n then invalid_arg "Bitset.inter: size mismatch";
  let out = create a.n in
  for i = 0 to Bytes.length a.bits - 1 do
    Bytes.set out.bits i
      (Char.chr (Char.code (Bytes.get a.bits i) land Char.code (Bytes.get b.bits i)))
  done;
  out


let iter b f =
  for i = 0 to b.n - 1 do
    if mem b i then f i
  done

let to_list b =
  let acc = ref [] in
  for i = b.n - 1 downto 0 do
    if mem b i then acc := i :: !acc
  done;
  !acc
