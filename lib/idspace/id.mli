(** Flat 128-bit labels and circular-namespace arithmetic.

    ROFL identifiers are semantics-free 128-bit values living on a ring of
    size 2^128 (the paper, §2.1).  This module provides unsigned ordering,
    clockwise distance, interval membership (the "between but not past"
    predicate greedy routing relies on), and bit and prefix views. *)

type t
(** An immutable 128-bit identifier. *)

val zero : t

val of_int64_pair : int64 -> int64 -> t
(** [of_int64_pair hi lo]. *)

val of_int : int -> t
(** Embeds a non-negative integer into the low bits.
    Exported for tests: the tests build small, readable identifiers with it. *)

val compare : t -> t -> int
(** Total unsigned order (not ring order).  Allocation-free. *)

val equal : t -> t -> bool

val hash : t -> int
(** Mixed-word avalanche hash over both 64-bit halves; allocation-free. *)

val key : t -> int
(** The top 62 bits of the {!compare} order packed into an immediate int in
    [\[0, 2^62)]: [key x < key y] implies [compare x y < 0], and unequal
    keys decide the order outright.  Lets flat search structures scan
    contiguous unboxed [int array]s (differences of two keys cannot
    overflow, enabling branchless sign-mask selects) and fall back to the
    full 128-bit [compare] only on key ties.  Allocation-free. *)

val key_mask : int
(** [2{^62}-1]: [(key target - key x) land key_mask] is the clockwise key
    distance from [x] to [target], the [dx] of {!closer_clockwise_keyed}. *)

val succ_id : t -> t
(** Clockwise neighbour (wraps from all-ones to zero). *)

val pred_id : t -> t
(** Counter-clockwise neighbour (wraps from zero to all-ones).
    Exported for tests: the tests probe the identifier just below a member. *)

val add : t -> t -> t
(** Addition modulo 2^128. *)

val sub : t -> t -> t
(** Subtraction modulo 2^128.
    Exported for tests: the tests check ring arithmetic with it. *)

val distance : t -> t -> t
(** [distance a b] is the clockwise distance from [a] to [b]
    (i.e. [b - a] mod 2^128).  [distance a a = zero]. *)

val between : t -> t -> t -> bool
(** [between a x b] holds when walking clockwise from [a] one meets [x]
    strictly before [b]; i.e. [x ∈ (a, b)] on the ring.  With [a = b] the
    interval is the whole ring minus [a].  Allocation-free: the distances
    are compared word-by-word, never materialised. *)

val between_incl : t -> t -> t -> bool
(** [x ∈ (a, b\]] on the ring: the "closest but not past the destination"
    test.  With [a = b] every [x] qualifies (full ring).  Allocation-free. *)

val closer_clockwise : target:t -> t -> t -> bool
(** [closer_clockwise ~target x y] holds when [x] is strictly closer to
    [target] than [y] is, measuring clockwise distance *from* each candidate
    *to* the target — the greedy-routing progress measure.
    Allocation-free. *)

val closer_clockwise_keyed : target:t -> int -> t -> int -> t -> bool
(** [closer_clockwise_keyed ~target dx x dy y] is [closer_clockwise ~target
    x y] given the key distances [dx = (key target - key x) land (2{^62}-1)]
    and [dy]: decided from those alone when both are positive and unequal,
    so scans over {!key} columns skip most identifier loads.

    Why that is exact: for the distance [d] from [x] to [target], [dx] is
    [d]'s top 62 bits plus a borrow, taken mod 2{^62}.  The borrow is 1
    exactly when [d]'s low 66 bits exceed [target]'s low 66 bits.  Among
    distances with the same top bits it therefore only grows with [d], and
    it adds at most 1, the least step between different top bits.  Unless
    the sum wraps to 0, the key distance is so monotone in the true
    distance, and two unequal positive key distances order the true ones the
    same way.  A zero key distance may be such a wrap, so it falls back to
    the full compare, as do equal ones. *)

val compare_dist : t -> t -> t -> t -> int
(** [compare_dist a b c d] orders the clockwise distance [a → b] against
    [c → d] without building either distance value; equivalent to
    [compare (distance a b) (distance c d)] but allocation-free.  The
    preferred comparator for sorting candidates by ring distance. *)

val bit : t -> int -> int
(** [bit id i] is bit [i] counted from the most significant (i = 0).
    Exported for tests: test_idspace checks the bit order against {!compare}. *)

val random : Rofl_util.Prng.t -> t
(** Uniformly random identifier. *)

val of_bytes_exn : string -> t
(** From exactly 16 big-endian bytes. *)

val to_bytes : t -> string

val is_prefix_of : t -> Bytes.t -> bool
(** [is_prefix_of id b]: [b] starts with the 16 bytes of [to_bytes id].
    Reads [b] in place: allocates nothing, unlike [of_bytes_exn].  Raises
    [Invalid_argument] if [b] is shorter than 16 bytes. *)

val to_hex : t -> string
(** Exported for tests: goldens and failure messages print full identifiers. *)

val to_short_string : t -> string
(** First 8 hex digits, for logs. *)
