(* Tests for SHA-256 (FIPS vectors), HMAC (RFC 4231 vectors), and the
   simulated self-certifying identity layer. *)

module Sha256 = Rofl_crypto.Sha256
module Hmac = Rofl_crypto.Hmac
module Identity = Rofl_crypto.Identity
module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng

let check_hex = Alcotest.check Alcotest.string

(* ---------- SHA-256 FIPS 180-4 vectors ---------- *)

let test_sha_empty () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_hex "")

let test_sha_abc () =
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_hex "abc")

let test_sha_448bit () =
  check_hex "two-block 448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_million_a () =
  check_hex "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha_block_boundaries () =
  (* Lengths around the 64-byte block and padding edges must all agree with
     the one-shot digest computed via the streaming interface. *)
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr (i land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.update ctx msg;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.digest msg) (Sha256.finalize ctx))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129; 1000 ]

let test_sha_streaming_chunks () =
  let msg = String.init 500 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let ctx = Sha256.init () in
  let rec feed pos =
    if pos < String.length msg then begin
      let len = min 37 (String.length msg - pos) in
      Sha256.update ctx (String.sub msg pos len);
      feed (pos + len)
    end
  in
  feed 0;
  Alcotest.(check string) "chunked = one-shot" (Sha256.digest msg) (Sha256.finalize ctx)

let test_sha_distinct () =
  Alcotest.(check bool) "different inputs differ" false
    (Sha256.digest "hello" = Sha256.digest "hellp")

(* One-shot [digest] (per-domain context, padding in its block buffer)
   against the streaming interface fed in random chunks, over every padding
   boundary: 55/56 (length fits or spills into a second block), 63/64 and
   119/120. *)
let prop_digest_matches_streaming =
  QCheck.Test.make ~name:"digest = streaming over random chunkings" ~count:500
    QCheck.(
      pair
        (make ~print:string_of_int
           Gen.(oneof [ int_range 0 300; oneofl [ 55; 56; 63; 64; 119; 120 ] ]))
        (int_range 1 1_000_000))
    (fun (len, seed) ->
      let g = Prng.create seed in
      let msg = String.init len (fun _ -> Char.chr (Prng.int g 256)) in
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < len do
        let take = min (len - !pos) (Prng.int g 130) in
        Sha256.update ctx (String.sub msg !pos take);
        pos := !pos + take
      done;
      String.equal (Sha256.digest msg) (Sha256.finalize ctx))

(* ---------- HMAC-SHA256 RFC 4231 vectors ---------- *)

let hex_to_string h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check_hex "case 1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  check_hex "case 2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check_hex "case 3" "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key msg)

let test_hmac_rfc4231_case6_long_key () =
  let key = String.make 131 '\xaa' in
  check_hex "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

(* A one-shot check through the streaming run. *)
let verify ~key ~msg ~tag =
  let ctx = Hmac.start ~key in
  Sha256.update ctx msg;
  Hmac.check ctx ~tag

let test_hmac_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Hmac.mac ~key msg in
  Alcotest.(check bool) "valid" true (verify ~key ~msg ~tag);
  Alcotest.(check bool) "wrong msg" false (verify ~key ~msg:"other" ~tag);
  Alcotest.(check bool) "wrong key" false (verify ~key:"nope" ~msg ~tag);
  Alcotest.(check bool) "truncated tag" false
    (verify ~key ~msg ~tag:(String.sub tag 0 16))

(* RFC 2104 written out over one-shot digests: the reference both the
   streaming and the prepared-key paths must reproduce. *)
let reference_mac ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\000' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

(* One run under a prepared key, fed the whole message. *)
let mac_keyed k msg =
  let ctx = Hmac.start_keyed k in
  Sha256.update ctx msg;
  Hmac.finish ctx

let verify_keyed k ~msg ~tag =
  let ctx = Hmac.start_keyed k in
  Sha256.update ctx msg;
  Hmac.check ctx ~tag

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"mac and mac_keyed = RFC 2104 reference, keys of 0-200 bytes"
    ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 200)) (string_of_size (Gen.int_range 0 300)))
    (fun (key, msg) ->
      let want = reference_mac ~key msg in
      let k = Hmac.key key in
      String.equal want (Hmac.mac ~key msg)
      && String.equal want (mac_keyed k msg)
      && verify_keyed k ~msg ~tag:want
      && String.equal want (mac_keyed k msg))

(* The identity handshake signs "resp:" ^ challenge ^ public key, fed to
   the HMAC run in three parts: under a raw or a prepared key, finished or
   checked, the parts must give the concatenation's tag, and a check must
   reject a tag off by one bit. *)
let prop_hmac_parts_match_concatenation =
  QCheck.Test.make ~name:"tag fed in parts = tag of the concatenated message" ~count:300
    QCheck.(
      triple (string_of_size (Gen.int_range 0 200)) (string_of_size (Gen.int_range 0 40))
        (string_of_size (Gen.int_range 0 80)))
    (fun (key, challenge, pub) ->
      let want = Hmac.mac ~key ("resp:" ^ challenge ^ pub) in
      let parts ctx =
        Sha256.update ctx "resp:";
        Sha256.update ctx challenge;
        Sha256.update ctx pub;
        ctx
      in
      let k = Hmac.key key in
      let forged =
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) want
      in
      String.equal want (Hmac.finish (parts (Hmac.start ~key)))
      && String.equal want (Hmac.finish (parts (Hmac.start_keyed k)))
      && Hmac.check (parts (Hmac.start ~key)) ~tag:want
      && Hmac.check (parts (Hmac.start_keyed k)) ~tag:want
      && (not (Hmac.check (parts (Hmac.start ~key)) ~tag:forged))
      && not (Hmac.check (parts (Hmac.start_keyed k)) ~tag:forged))

let test_hex_helper_sanity () =
  Alcotest.(check string) "roundtrip" "\x0b\x0b" (hex_to_string "0b0b")

(* ---------- Identity ---------- *)

let rng = Prng.create 77

let test_identity_deterministic_id () =
  let kp = Identity.generate rng in
  let id1 = Identity.id_of_keypair kp in
  let id2 = Identity.id_of_public (Identity.public kp) in
  Alcotest.(check bool) "id derived from public key" true (Id.equal id1 id2)

let test_identity_distinct () =
  let a = Identity.generate rng and b = Identity.generate rng in
  Alcotest.(check bool) "different keypairs, different ids" false
    (Id.equal (Identity.id_of_keypair a) (Identity.id_of_keypair b))

let test_identity_challenge_response () =
  let kp = Identity.generate rng in
  let c = Identity.fresh_challenge rng in
  let resp = Identity.respond kp c in
  Alcotest.(check bool) "honest response verifies" true
    (Identity.verify (Identity.public kp) c resp);
  let other = Identity.generate rng in
  Alcotest.(check bool) "response bound to keypair" false
    (Identity.verify (Identity.public other) c resp);
  let c2 = Identity.fresh_challenge rng in
  Alcotest.(check bool) "response bound to challenge" false
    (Identity.verify (Identity.public kp) c2 resp)

let test_identity_authenticate_ok () =
  let kp = Identity.generate rng in
  match
    Identity.authenticate rng ~claimed_id:(Identity.id_of_keypair kp)
      (Identity.public kp)
      (fun c -> Identity.respond kp c)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest join rejected: %s" e

let test_identity_authenticate_spoof () =
  let victim = Identity.generate rng and attacker = Identity.generate rng in
  (* Claim the victim's identifier with the attacker's key. *)
  (match
     Identity.authenticate rng ~claimed_id:(Identity.id_of_keypair victim)
       (Identity.public attacker)
       (fun c -> Identity.respond attacker c)
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "id/key mismatch accepted");
  (* Claim the victim's identifier AND present the victim's public key but
     answer with the attacker's secret. *)
  match
    Identity.authenticate rng ~claimed_id:(Identity.id_of_keypair victim)
      (Identity.public victim)
      (fun c -> Identity.respond attacker c)
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forged response accepted"

(* The registry holds public keys weakly: held keypairs still verify after
   a major collection, dropped ones leave no entry behind. *)
let test_identity_registry_weak () =
  let g = Prng.create 2024 in
  let held = Identity.generate g in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Identity.generate g))
  done;
  Gc.full_major ();
  let left = Identity.registered () in
  Alcotest.(check bool) (Printf.sprintf "registry near-empty (%d left)" left) true (left < 100);
  let c = Identity.fresh_challenge g in
  Alcotest.(check bool) "held keypair verifies" true
    (Identity.verify (Identity.public held) c (Identity.respond held c));
  match
    Identity.authenticate g ~claimed_id:(Identity.id_of_keypair held) (Identity.public held)
      (fun c -> Identity.respond held c)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "held keypair rejected: %s" e

let test_sybil_auditor () =
  let a = Identity.auditor ~limit:2 in
  let id1 = Id.random rng and id2 = Id.random rng and id3 = Id.random rng in
  Alcotest.(check bool) "first" true (Identity.admit a id1 = Ok ());
  Alcotest.(check bool) "second" true (Identity.admit a id2 = Ok ());
  Alcotest.(check bool) "idempotent readmit" true (Identity.admit a id1 = Ok ());
  (match Identity.admit a id3 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "limit not enforced");
  Identity.release a id1;
  Alcotest.(check bool) "slot freed" true (Identity.admit a id3 = Ok ());
  Alcotest.(check int) "admitted count" 2 (Identity.admitted a)

let () =
  Alcotest.run "rofl_crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty string" `Quick test_sha_empty;
          Alcotest.test_case "abc" `Quick test_sha_abc;
          Alcotest.test_case "448-bit message" `Quick test_sha_448bit;
          Alcotest.test_case "million a's" `Slow test_sha_million_a;
          Alcotest.test_case "block boundaries" `Quick test_sha_block_boundaries;
          Alcotest.test_case "streaming chunks" `Quick test_sha_streaming_chunks;
          Alcotest.test_case "distinct inputs" `Quick test_sha_distinct;
          QCheck_alcotest.to_alcotest prop_digest_matches_streaming;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "RFC 4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "RFC 4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "RFC 4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "RFC 4231 case 6" `Quick test_hmac_rfc4231_case6_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "hex helper" `Quick test_hex_helper_sanity;
          QCheck_alcotest.to_alcotest prop_hmac_matches_reference;
          QCheck_alcotest.to_alcotest prop_hmac_parts_match_concatenation;
        ] );
      ( "identity",
        [
          Alcotest.test_case "id from public key" `Quick test_identity_deterministic_id;
          Alcotest.test_case "distinct ids" `Quick test_identity_distinct;
          Alcotest.test_case "challenge/response" `Quick test_identity_challenge_response;
          Alcotest.test_case "authenticate ok" `Quick test_identity_authenticate_ok;
          Alcotest.test_case "authenticate spoof" `Quick test_identity_authenticate_spoof;
          Alcotest.test_case "sybil auditor" `Quick test_sybil_auditor;
          Alcotest.test_case "registry is weak" `Quick test_identity_registry_weak;
        ] );
    ]
