(* SHA-256 over 32-bit words carried in OCaml ints (63-bit), masked to 32
   bits after every arithmetic step. *)

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

let mask = 0xFFFFFFFF

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* Nothing here allocates per block: a context owns its chaining value,
   message schedule and one 64-byte block buffer, whole blocks are
   compressed straight from the message, and padding is written into the
   block buffer.  Only [init] and the 32-byte result allocate. *)
type ctx = {
  h : int array;
  w : int array; (* message schedule *)
  buf : Bytes.t; (* the partial block; padding is written here *)
  mutable buf_len : int;
  mutable total_len : int; (* bytes *)
}

let init () =
  { h = Array.copy iv; w = Array.make 64 0; buf = Bytes.create 64; buf_len = 0; total_len = 0 }

external get_int32_ne : string -> int -> int32 = "%caml_string_get32"

external swap32 : int32 -> int32 = "%bswap_int32"

(* The big-endian 32-bit word at byte [i]; each branch is one primitive
   chain, so the int32 is never boxed. *)
let[@inline] word s i =
  if Sys.big_endian then Int32.to_int (get_int32_ne s i) land mask
  else Int32.to_int (swap32 (get_int32_ne s i)) land mask

(* Compress the 64-byte block of [block] at [offset].  Only a word that is
   shifted right must be clean: schedule words and working variables are
   masked to 32 bits where they are stored, while rotations, sigmas and
   sums carry garbage above bit 31 that never reaches the low 32 bits. *)
let compress ctx block offset =
  let w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    Array.unsafe_set w t (word block (offset + (4 * t)))
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 =
      ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3)
    in
    let s1 =
      ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10)
    in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2)
  and d = ref h.(3) and e = ref h.(4) and f = ref h.(5)
  and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 =
      ((e' lsr 6) lor (e' lsl 26)) lxor ((e' lsr 11) lor (e' lsl 21))
      lxor ((e' lsr 25) lor (e' lsl 7))
    in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 =
      ((a' lsr 2) lor (a' lsl 30)) lxor ((a' lsr 13) lor (a' lsl 19))
      lxor ((a' lsr 22) lor (a' lsl 10))
    in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let compress_buf ctx = compress ctx (Bytes.unsafe_to_string ctx.buf) 0

let update ctx msg =
  let len = String.length msg in
  ctx.total_len <- ctx.total_len + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string msg 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the message. *)
  while len - !pos >= 64 do
    compress ctx msg !pos;
    pos := !pos + 64
  done;
  (* Stash the tail. *)
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string msg !pos ctx.buf ctx.buf_len rest;
    ctx.buf_len <- ctx.buf_len + rest
  end

(* Padding: 0x80, zeros, then the 64-bit big-endian bit length in the last
   8 bytes of a block -- of the next block when fewer than 9 bytes are
   left. *)
let finalize_into ctx out =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress_buf ctx;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  let bits = ctx.total_len * 8 in
  for i = 0 to 7 do
    Bytes.set buf (56 + i) (Char.unsafe_chr ((bits lsr (56 - (8 * i))) land 0xFF))
  done;
  compress_buf ctx;
  for i = 0 to 7 do
    let x = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.unsafe_chr (x lsr 24));
    Bytes.set out ((4 * i) + 1) (Char.unsafe_chr ((x lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.unsafe_chr ((x lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.unsafe_chr (x land 0xFF))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx out;
  Bytes.unsafe_to_string out

(* One context per domain serves every one-shot digest.  The result is
   allocated first, so nothing can run between resetting the context and
   reading it out. *)
let scratch = Domain.DLS.new_key init

let domain_ctx () =
  let ctx = Domain.DLS.get scratch in
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total_len <- 0;
  ctx

let digest msg =
  let out = Bytes.create 32 in
  let ctx = domain_ctx () in
  update ctx msg;
  finalize_into ctx out;
  Bytes.unsafe_to_string out

(* A midstate is the eight chaining words followed by the byte count. *)
type midstate = int array

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: partial block pending";
  let m = Array.make 9 ctx.total_len in
  Array.blit ctx.h 0 m 0 8;
  m

let resume ctx (m : midstate) =
  Array.blit m 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total_len <- m.(8)

let to_hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let digest_hex msg = to_hex (digest msg)
