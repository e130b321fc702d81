let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key < block_size then
    key ^ String.make (block_size - String.length key) '\000'
  else key

let xor_with byte s = String.map (fun c -> Char.chr (Char.code c lxor byte)) s

let mac ~key msg =
  let key = normalize_key key in
  let inner = Sha256.digest (xor_with 0x36 key ^ msg) in
  Sha256.digest (xor_with 0x5c key ^ inner)

let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)

let verify ~key ~msg ~tag =
  let expected = mac ~key msg in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i]))
      expected;
    !diff = 0
  end
