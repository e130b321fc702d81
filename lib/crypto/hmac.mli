(** HMAC-SHA256 (RFC 2104).

    Used by the simulated identity layer for challenge/response proofs.
    Every call streams through the calling domain's SHA-256 context, so a
    message may be fed in parts without concatenating them, and only a
    returned tag is allocated. *)

val mac : key:string -> string -> string
(** 32-byte binary tag.

    Exported for tests: test_crypto checks it, and one-shot verification
    through {!start} and {!check}, against an RFC 2104 reference. *)

val mac_hex : key:string -> string -> string
(** Kept as a reference: the RFC 4231 test vectors pin the HMAC through it. *)

type key
(** A key's two padded blocks, already hashed: the SHA-256 midstates after
    the ipad and the opad block. *)

val key : string -> key
(** Two compressions, paid once per key instead of once per message. *)

(** {2 Streaming}

    A run starts the domain's SHA-256 context after the key's ipad block;
    the caller feeds the message with {!Sha256.update}, in as many parts as
    it likes, and ends the run with {!finish} or {!check}.  Feeding parts
    [a], [b], [c] gives the tag of [a ^ b ^ c].  Like
    {!Sha256.domain_ctx}, a run must end before the next hash starts on the
    same domain. *)

val start : key:string -> Sha256.ctx
(** A run under a raw key. *)

val start_keyed : key -> Sha256.ctx
(** A run under a prepared key: two compressions fewer than {!start}. *)

val finish : Sha256.ctx -> string
(** The run's 32-byte tag. *)

val check : Sha256.ctx -> tag:string -> bool
(** Constant-time comparison of the run's tag with [tag]; the run's tag is
    computed into scratch, so nothing is allocated. *)
