(** SHA-256 (FIPS 180-4), implemented from scratch.

    ROFL identifiers are hashes of public keys (§2.1); this is the hash.  The
    implementation is pure OCaml over [Bytes] and is validated against the
    FIPS test vectors in the test suite.  No call allocates per block. *)

val digest : string -> string
(** [digest msg] is the 32-byte binary digest of [msg].  Runs on a
    per-domain context, so it allocates only its result. *)

val digest_hex : string -> string
(** Digest as 64 lowercase hex characters.

    Kept as a reference: the FIPS 180-4 vectors pin SHA-256 through it;
    test_experiments' golden table digests use it. *)

val to_hex : string -> string
(** Any string as lowercase hex, two characters per byte. *)

type ctx
(** Streaming context. *)

val init : unit -> ctx
(** Exported for tests: test_crypto streams through a fresh context and compares
    with {!digest}. *)

val update : ctx -> string -> unit

val finalize : ctx -> string
(** Finish and return the 32-byte digest; the context must not be reused. *)

val finalize_into : ctx -> Bytes.t -> unit
(** {!finalize} into the first 32 bytes of a caller's buffer. *)

val domain_ctx : unit -> ctx
(** The calling domain's own context, reset to the start state: streaming
    through it allocates nothing.  {!digest} runs on the same context, so
    finish with it before the next [digest] on this domain. *)

type midstate
(** The state after whole blocks: chaining value and byte count. *)

val midstate : ctx -> midstate
(** Snapshot of a context that holds no partial block (its byte count is a
    multiple of 64); [Invalid_argument] otherwise. *)

val resume : ctx -> midstate -> unit
(** Put a context back in a snapshotted state, e.g. a keyed prefix that is
    then hashed once instead of per message. *)
