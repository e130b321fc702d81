(** Bloom filters over flat identifiers.

    Interdomain ROFL uses per-AS bloom filters summarising the identifiers
    hosted in the subtree below an AS, for (a) peering-link shortcuts with
    backtracking and (b) guarding border pointer caches so caching cannot
    violate the isolation property (§4.1–4.2).  Double hashing over two
    SHA-256-derived base hashes (Kirsch–Mitzenmacher) gives the [k] probe
    positions. *)

type t

val create : m_bits:int -> k:int -> t
(** [create ~m_bits ~k] allocates a filter of [m_bits] bits with [k] probes.
    [m_bits] must be positive; [k] in [\[1, 32\]]. *)

val create_optimal : expected:int -> fpr:float -> t
(** Size a filter for [expected] insertions at target false-positive rate
    [fpr], using m = -n ln p / (ln 2)^2 and k = (m/n) ln 2. *)

val m_bits : t -> int

val k : t -> int

val count : t -> int
(** Number of insertions performed. *)

val add : t -> Rofl_idspace.Id.t -> unit

val mem : t -> Rofl_idspace.Id.t -> bool
(** No false negatives; false positives at roughly the design rate. *)

val add_string : t -> string -> unit

val mem_string : t -> string -> bool

val probe_positions : t -> string -> int list
(** The [k] bit positions probed for a key, in probe order: position 0 is
    [h1 mod m] and each subsequent position steps by a fixed stride in
    [\[1, m-1\]] derived from [h2], all arithmetic reduced mod [m] up front
    (no native-int overflow, no [abs]-folded residues, no zero stride).
    Exposed so regression tests can pin the probe stream. *)

val merge_into : dst:t -> t -> unit
(** OR a filter into [dst]; both must have equal geometry.  Used when an AS
    aggregates its customers' filters up the hierarchy. *)

val estimated_fpr : t -> float
(** Estimated false-positive rate given the current fill:
    (1 - e^{-kn/m})^k. *)

val fill_ratio : t -> float
(** Fraction of bits set. *)

val copy : t -> t

val clear : t -> unit
