module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng

type public = string

(* [hkey] is the secret's HMAC key schedule (its ipad/opad midstates),
   built by the first response and then reused by every response and, via
   the registry, every verification. *)
type keypair = { secret : string; pub : public; mutable hkey : Hmac.key option }

let derive_public secret =
  let ctx = Sha256.domain_ctx () in
  Sha256.update ctx "pk-derive:";
  Sha256.update ctx secret;
  Sha256.finalize ctx

let generate g =
  let a = Id.to_bytes (Id.random g) in
  let b = Id.to_bytes (Id.random g) in
  let secret = String.concat "" [ "sk:"; a; b ] in
  { secret; pub = derive_public secret; hkey = None }

let hmac_key kp =
  match kp.hkey with
  | Some k -> k
  | None ->
    let k = Hmac.key kp.secret in
    kp.hkey <- Some k;
    k

let public kp = kp.pub

let id_of_public pub = Id.of_bytes_exn (String.sub (Sha256.digest pub) 0 16)

(* A digest is taken into the domain's own 32 bytes when only compared. *)
let digest_scratch = Domain.DLS.new_key (fun () -> Bytes.create 32)

(* [id_of_public pub = id], without building either side's bytes. *)
let binds id pub =
  let ctx = Sha256.domain_ctx () in
  Sha256.update ctx pub;
  let d = Domain.DLS.get digest_scratch in
  Sha256.finalize_into ctx d;
  Id.is_prefix_of id d

let id_of_keypair kp = id_of_public kp.pub

type challenge = string

let fresh_challenge g = Id.to_bytes (Id.random g)

type response = { pub : public; tag : string }

(* The signed message is "resp:" ^ challenge ^ pub, fed to the HMAC run in
   those three parts instead of concatenated. *)
let sign ctx challenge pub =
  Sha256.update ctx "resp:";
  Sha256.update ctx challenge;
  Sha256.update ctx pub;
  ctx

let respond (kp : keypair) challenge =
  { pub = kp.pub; tag = Hmac.finish (sign (Hmac.start_keyed (hmac_key kp)) challenge kp.pub) }

(* Without real signatures the verifier cannot recompute an HMAC keyed by the
   prover's secret, so the simulation verifies the binding structurally: the
   response must carry the same public key, and the tag must be well-formed
   and deterministic for (secret, challenge).  A forger without the secret
   cannot produce the tag because it would need SHA-256 preimages.  We model
   verification as recomputing via a registry of issued keypairs.  The
   registry is process-global shared mutable state; campaigns generate keys
   from several [Pool] domains, so every access takes the lock.  It holds
   its public keys weakly: a keypair nobody holds any more (a rejected
   grinding draw, a host whose join is done) can never answer a challenge
   again, so its entry goes with the next major collection instead of
   growing the registry by one entry per [generate] for the whole run.
   An entry is the keypair itself, so the secret's HMAC key schedule sits
   beside the public key and a verification hashes only the message. *)
module Registry = Ephemeron.K1.Make (String)

let registry : keypair Registry.t = Registry.create 256

let registry_lock = Mutex.create ()

let register (kp : keypair) =
  Mutex.lock registry_lock;
  Registry.replace registry kp.pub kp;
  Mutex.unlock registry_lock

let registry_find pub =
  Mutex.lock registry_lock;
  let r = Registry.find_opt registry pub in
  Mutex.unlock registry_lock;
  r

let registered () =
  Mutex.lock registry_lock;
  Registry.clean registry;
  let n = Registry.length registry in
  Mutex.unlock registry_lock;
  n

let verify pub challenge resp =
  resp.pub = pub
  &&
  match registry_find pub with
  | None -> false
  | Some kp -> Hmac.check (sign (Hmac.start_keyed (hmac_key kp)) challenge pub) ~tag:resp.tag

(* Registration happens implicitly at generation time in the simulation. *)
let generate g =
  let kp = generate g in
  register kp;
  kp

(* Campaigns mint session identifiers directly from simulation randomness
   rather than by hashing freshly generated keys, so those identifiers have
   no registry entry.  [credential_for] is the deterministic stand-in for
   "the keypair the minting host holds for this identifier": a pure function
   of the identifier bytes, so every domain and every shard layout derives
   the same binding without shared state.  Only code playing the *owner* of
   an identifier may call it — an attacker forging someone else's identifier
   is modelled by presenting a keypair that is neither this canonical
   credential nor a hash-preimage of the identifier. *)
let credential_for id =
  let g = Prng.create (Hashtbl.hash (Id.to_bytes id, 0x1dc5ed)) in
  let raw = Id.to_bytes (Id.random g) ^ Id.to_bytes (Id.random g) in
  let secret = "sk-for:" ^ raw ^ Id.to_bytes id in
  { secret; pub = derive_public secret; hkey = None }

(* A response proves ownership of [claimed] iff the public key it carries is
   bound to the identifier — either genuinely self-certifying
   (claimed = H(pub), secret known to the registry) or the canonical
   simulation credential minted with the identifier — and the HMAC tag was
   produced with that key's secret over this exact challenge. *)
let check_response ~claimed challenge (resp : response) =
  if binds claimed resp.pub then
    match registry_find resp.pub with
    | None -> false
    | Some kp ->
      Hmac.check (sign (Hmac.start_keyed (hmac_key kp)) challenge resp.pub) ~tag:resp.tag
  else begin
    let kp = credential_for claimed in
    String.equal resp.pub kp.pub
    && Hmac.check (sign (Hmac.start ~key:kp.secret) challenge resp.pub) ~tag:resp.tag
  end

let verify_claim g ~claimed prover =
  let challenge = fresh_challenge g in
  if check_response ~claimed challenge (prover challenge) then Ok ()
  else Error "challenge/response failed: prover does not hold the identifier's key"

(* Key grinding: draw fresh self-certifying keypairs until one hashes into
   the acceptance region.  This is exactly the work a Sybil attacker must
   spend to place identifiers around a victim — the draw count is the
   honest cost figure campaigns report. *)
let grind g ~accept ~budget =
  let rec go draws =
    if draws >= budget then (None, draws)
    else begin
      let kp = generate g in
      if accept (id_of_keypair kp) then (Some kp, draws + 1) else go (draws + 1)
    end
  in
  go 0

let authenticate g ~claimed_id pub prover =
  if not (binds claimed_id pub) then
    Error "identifier does not match hash of public key"
  else begin
    let challenge = fresh_challenge g in
    let resp = prover challenge in
    if verify pub challenge resp then Ok ()
    else Error "challenge/response verification failed"
  end

type sybil_auditor = { limit : int; ids : (Id.t, unit) Hashtbl.t }

let auditor ~limit = { limit; ids = Hashtbl.create 64 }

let admit a id =
  if Hashtbl.mem a.ids id then Ok ()
  else if Hashtbl.length a.ids >= a.limit then
    Error "per-router resident-identifier limit reached (Sybil audit)"
  else begin
    Hashtbl.add a.ids id ();
    Ok ()
  end

let release a id = Hashtbl.remove a.ids id

let admitted a = Hashtbl.length a.ids
