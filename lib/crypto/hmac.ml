let block_size = 64

(* Per-domain scratch: the XORed key block and the inner digest.  Both are
   consumed by the per-domain SHA-256 context before the call returns. *)
type scratch = { block : Bytes.t; inner : Bytes.t }

let scratch = Domain.DLS.new_key (fun () -> { block = Bytes.create block_size; inner = Bytes.create 32 })

(* A key longer than a block is hashed first (RFC 2104).  That runs on the
   domain's context too, so it happens before any run below starts. *)
let normalize key = if String.length key > block_size then Sha256.digest key else key

(* Hash the (normalized) key block XORed with [pad] into a fresh run of the
   domain's context. *)
let start_keyed sc key pad =
  let len = String.length key in
  for i = 0 to block_size - 1 do
    let c = if i < len then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set sc.block i (Char.unsafe_chr (c lxor pad))
  done;
  let ctx = Sha256.domain_ctx () in
  Sha256.update ctx (Bytes.unsafe_to_string sc.block);
  ctx

let finish_outer sc ctx =
  Sha256.update ctx (Bytes.unsafe_to_string sc.inner);
  let out = Bytes.create 32 in
  Sha256.finalize_into ctx out;
  Bytes.unsafe_to_string out

let mac ~key msg =
  let key = normalize key in
  let sc = Domain.DLS.get scratch in
  let ctx = start_keyed sc key 0x36 in
  Sha256.update ctx msg;
  Sha256.finalize_into ctx sc.inner;
  finish_outer sc (start_keyed sc key 0x5c)

type key = { ipad : Sha256.midstate; opad : Sha256.midstate }

let key k =
  let k = normalize k in
  let sc = Domain.DLS.get scratch in
  let ipad = Sha256.midstate (start_keyed sc k 0x36) in
  { ipad; opad = Sha256.midstate (start_keyed sc k 0x5c) }

let mac_keyed k msg =
  let sc = Domain.DLS.get scratch in
  let ctx = Sha256.domain_ctx () in
  Sha256.resume ctx k.ipad;
  Sha256.update ctx msg;
  Sha256.finalize_into ctx sc.inner;
  Sha256.resume ctx k.opad;
  finish_outer sc ctx

let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)

let equal_tags expected tag =
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i]))
      expected;
    !diff = 0
  end

let verify ~key ~msg ~tag = equal_tags (mac ~key msg) tag

let verify_keyed k ~msg ~tag = equal_tags (mac_keyed k msg) tag
