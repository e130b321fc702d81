let block_size = 64

type key = { ipad : Sha256.midstate; opad : Sha256.midstate }

(* Per-domain scratch: the XORed key block, the inner digest, a tag
   computed only to be compared, and how the run in the domain's SHA-256
   context finishes: under [raw_key]'s opad block when [raw], else by
   resuming [prepared]'s opad midstate.  Everything here is consumed by
   the domain's context before the run's {!finish} or {!check} returns. *)
type scratch = {
  block : Bytes.t;
  inner : Bytes.t;
  tag : Bytes.t;
  mutable raw : bool;
  mutable raw_key : string;
  mutable prepared : key;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      let iv = Sha256.midstate (Sha256.init ()) in
      {
        block = Bytes.create block_size;
        inner = Bytes.create 32;
        tag = Bytes.create 32;
        raw = true;
        raw_key = "";
        prepared = { ipad = iv; opad = iv };
      })

(* A key longer than a block is hashed first (RFC 2104).  That runs on the
   domain's context too, so it happens before any run below starts. *)
let normalize key = if String.length key > block_size then Sha256.digest key else key

(* Hash the (normalized) key block XORed with [pad] into a fresh run of the
   domain's context. *)
let start_block sc key pad =
  let len = String.length key in
  for i = 0 to block_size - 1 do
    let c = if i < len then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set sc.block i (Char.unsafe_chr (c lxor pad))
  done;
  let ctx = Sha256.domain_ctx () in
  Sha256.update ctx (Bytes.unsafe_to_string sc.block);
  ctx

let start ~key =
  let key = normalize key in
  let sc = Domain.DLS.get scratch in
  sc.raw <- true;
  sc.raw_key <- key;
  start_block sc key 0x36

let key k =
  let k = normalize k in
  let sc = Domain.DLS.get scratch in
  let ipad = Sha256.midstate (start_block sc k 0x36) in
  { ipad; opad = Sha256.midstate (start_block sc k 0x5c) }

let start_keyed k =
  let sc = Domain.DLS.get scratch in
  sc.raw <- false;
  sc.prepared <- k;
  let ctx = Sha256.domain_ctx () in
  Sha256.resume ctx k.ipad;
  ctx

(* Close the inner hash and run the outer one up to its last block. *)
let outer sc ctx =
  Sha256.finalize_into ctx sc.inner;
  let ctx =
    if sc.raw then start_block sc sc.raw_key 0x5c
    else begin
      Sha256.resume ctx sc.prepared.opad;
      ctx
    end
  in
  Sha256.update ctx (Bytes.unsafe_to_string sc.inner);
  ctx

let finish ctx =
  let ctx = outer (Domain.DLS.get scratch) ctx in
  let out = Bytes.create 32 in
  Sha256.finalize_into ctx out;
  Bytes.unsafe_to_string out

(* Constant time in the tag's bytes; a loop, so nothing is allocated. *)
let equal_tags expected tag =
  let n = String.length expected in
  n = String.length tag
  &&
  let diff = ref 0 in
  for i = 0 to n - 1 do
    let a = Char.code (String.unsafe_get expected i) in
    diff := !diff lor (a lxor Char.code (String.unsafe_get tag i))
  done;
  !diff = 0

let check ctx ~tag =
  let sc = Domain.DLS.get scratch in
  Sha256.finalize_into (outer sc ctx) sc.tag;
  equal_tags (Bytes.unsafe_to_string sc.tag) tag

let mac ~key msg =
  let ctx = start ~key in
  Sha256.update ctx msg;
  finish ctx

let mac_hex ~key msg = Sha256.to_hex (mac ~key msg)
