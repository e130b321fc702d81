(** HMAC-SHA256 (RFC 2104).

    Used by the simulated identity layer for challenge/response proofs.
    Every call streams through the calling domain's SHA-256 context and
    allocates only its tag. *)

val mac : key:string -> string -> string
(** 32-byte binary tag.

    Exported for tests: the one-shot HMAC under verify; test_crypto checks
    it against an RFC 2104 reference. *)

val mac_hex : key:string -> string -> string
(** Kept as a reference: the RFC 4231 test vectors pin the HMAC through it. *)

val verify : key:string -> msg:string -> tag:string -> bool
(** Constant-time comparison of the expected and presented tags. *)

type key
(** A key's two padded blocks, already hashed: the SHA-256 midstates after
    the ipad and the opad block. *)

val key : string -> key
(** Two compressions, paid once per key instead of once per message. *)

val mac_keyed : key -> string -> string
(** [mac_keyed (key k) msg = mac ~key:k msg], two compressions fewer. *)

val verify_keyed : key -> msg:string -> tag:string -> bool
(** {!verify} under a prepared key. *)
