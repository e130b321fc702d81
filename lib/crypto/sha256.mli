(** SHA-256 (FIPS 180-4), implemented from scratch.

    ROFL identifiers are hashes of public keys (§2.1); this is the hash.  The
    implementation is pure OCaml over [Bytes] and is validated against the
    FIPS test vectors in the test suite.  No call allocates per block. *)

val digest : string -> string
(** [digest msg] is the 32-byte binary digest of [msg].  Runs on a
    per-domain context, so it allocates only its result. *)

val digest_hex : string -> string
(** Digest as 64 lowercase hex characters. *)

val to_hex : string -> string
(** Any string as lowercase hex, two characters per byte. *)

type ctx
(** Streaming context. *)

val init : unit -> ctx

val update : ctx -> string -> unit

val finalize : ctx -> string
(** Finish and return the 32-byte digest; the context must not be reused. *)
