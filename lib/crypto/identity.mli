(** Simulated self-certifying identities.

    The paper ties each host/router identity to a public–private key pair and
    derives the flat identifier as a hash of the public key (§2.1), so a host
    can prove to its hosting router that it owns an identifier before the ID
    becomes resident.

    Substitution (see DESIGN.md): instead of real asymmetric crypto we use a
    one-way construction — the "public key" is SHA-256 of the secret — plus an
    HMAC challenge/response.  This preserves exactly the properties ROFL
    needs: identifiers uniformly distributed in the 128-bit space, a
    verifiable binding between the secret-holder and the identifier, and no
    way to claim an identifier without the secret. *)

type keypair
(** Secret plus derived public key. *)

type public = string
(** Serialised public key. *)

val generate : Rofl_util.Prng.t -> keypair
(** Fresh keypair from simulation randomness. *)

val public : keypair -> public

val id_of_public : public -> Rofl_idspace.Id.t
(** The self-certifying flat label: the top 128 bits of SHA-256(public). *)

val id_of_keypair : keypair -> Rofl_idspace.Id.t

type challenge = string

val fresh_challenge : Rofl_util.Prng.t -> challenge
(** Router-side nonce for the residency handshake. *)

type response

val respond : keypair -> challenge -> response
(** Host-side proof of ownership of the keypair. *)

val verify : public -> challenge -> response -> bool
(** Router-side check.  [verify pub c (respond kp c)] holds iff
    [public kp = pub]. *)

val authenticate :
  Rofl_util.Prng.t ->
  claimed_id:Rofl_idspace.Id.t ->
  public ->
  (challenge -> response) ->
  (unit, string) result
(** Full residency handshake (paper §2.1 "Security"): check that the claimed
    identifier matches the hash of the public key, then run one
    challenge/response round trip.  Returns [Error reason] on spoofing. *)

val registered : unit -> int
(** Keypairs on record whose public key is still reachable.  The registry
    behind {!verify} holds public keys weakly: once nothing holds a keypair
    or its public key, the entry goes with the next major collection. *)

val credential_for : Rofl_idspace.Id.t -> keypair
(** Canonical simulation credential for an identifier minted directly from
    campaign randomness (rather than by hashing a generated key).  Pure
    function of the identifier bytes — every domain derives the same binding
    with no shared state.  Models "the keypair the minting host holds"; only
    the identifier's rightful owner may present it. *)

val check_response :
  claimed:Rofl_idspace.Id.t -> challenge -> response -> bool
(** Does this response prove ownership of [claimed] for this challenge?
    Accepts a genuinely self-certifying key ([claimed = H(pub)], secret on
    record) or the canonical [credential_for] binding; rejects everything
    else, including valid tags under a key bound to a different identifier. *)

val verify_claim :
  Rofl_util.Prng.t ->
  claimed:Rofl_idspace.Id.t ->
  (challenge -> response) ->
  (unit, string) result
(** One challenge/response round trip against [check_response].  Unlike
    {!authenticate} it also accepts canonical campaign credentials, so it is
    the verification entry point for the dynamic ring. *)

val grind :
  Rofl_util.Prng.t ->
  accept:(Rofl_idspace.Id.t -> bool) ->
  budget:int ->
  keypair option * int
(** Draw fresh keypairs until one's identifier satisfies [accept] or [budget]
    draws are spent.  Returns the keypair (if found) and the number of draws —
    the work a Sybil attacker pays to aim identifiers at a ring region. *)

type sybil_auditor
(** Per-router audit state bounding the number of resident identifiers — the
    damage-control mechanism against Sybil attacks the paper sketches. *)

val auditor : limit:int -> sybil_auditor

val admit : sybil_auditor -> Rofl_idspace.Id.t -> (unit, string) result
(** Record a newly resident ID; [Error] once the per-router limit is hit. *)

val release : sybil_auditor -> Rofl_idspace.Id.t -> unit

val admitted : sybil_auditor -> int
