(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64 (Steele, Lea & Flood 2014): fast, 64-bit state, passes BigCrush
    when used as a stream, and trivially splittable by deriving child seeds.

    Draws allocate nothing: the state is one 8-byte block updated in place,
    and {!bits64} and {!float} are inlined into their callers, so the
    [int64] and [float] they compute stay unboxed (the bench row
    [rofl/prng-draw] gates a {!float} plus an {!int} at 0 words). *)

type t
(** Mutable generator state.  A generator belongs to one task. *)

val create : int -> t
(** [create seed] makes a generator from a seed.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split g] derives an independent child generator, advancing [g].  Use one
    child per subsystem so that adding draws to one subsystem does not perturb
    another. *)

val copy : t -> t
(** [copy g] draws what [g] would draw next, without advancing [g]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin.  Exported for tests: the tests draw coin flips with it. *)

val exponential : t -> float -> float
(** [exponential g mean] draws from Exp with the given mean. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf g ~n ~s] draws a rank in [\[1, n\]] with probability proportional to
    [1 / rank^s] (rejection-inversion, constant expected time). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_distinct : t -> int -> int -> int list
(** [pick_distinct g k n] draws [k] distinct values from [\[0, n)];
    requires [k <= n]. *)
