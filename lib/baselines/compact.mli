(** Name-dependent compact routing (Thorup–Zwick style landmarks).

    The paper positions ROFL against static compact routing schemes
    ("While ROFL falls far short of the static compact routing performance
    described in [24, 25]…", §1/§7).  This module implements the classic
    stretch-3 landmark scheme those papers build on, so the claim can be
    measured: every router keeps routes to a set of landmarks and to its
    cluster (the routers that are closer to it than to their own nearest
    landmark); a packet for [v] is routed directly when [v] is in the
    cluster, and via [v]'s home landmark otherwise.

    This is {e name-dependent} routing: the "address" (home landmark) of the
    destination must be known to the sender, which is exactly the resolution
    step ROFL is designed to avoid — the comparison trades ROFL's
    zero-resolution property against compact routing's stretch bound. *)

type t

val build :
  Rofl_util.Prng.t -> ?landmarks:int -> Rofl_topology.Graph.t -> t
(** Preprocess a topology.  [landmarks] defaults to
    [ceil (sqrt (n * log n))], the Thorup–Zwick balance point. *)

val landmark_count : t -> int
(** Exported for tests: test_baselines bounds the landmark set (sublinear
    tables). *)

val home_landmark : t -> int -> int
(** The landmark closest to a router — the location-bearing part of its
    compact address.

    Exported for tests: test_baselines checks every router's home landmark
    is a router. *)

val in_cluster : t -> int -> int -> bool
(** [in_cluster t u v]: is [v] in [u]'s cluster (direct routes kept)?

    Exported for tests: test_baselines checks cluster members are routed
    directly (stretch 1). *)

val route_hops : t -> src:int -> dst:int -> int option
(** Hop count of the compact route ([None] if disconnected):
    direct when [dst] is in the source's cluster or a landmark route
    otherwise.  Guaranteed at most 3× the shortest path.
    Exported for tests: test_baselines checks the stretch bound on it. *)

val stretch : t -> src:int -> dst:int -> float option
(** Compact route length over the true shortest path. *)

val avg_table_entries : t -> float
(** Mean routing-table entries per router: landmarks + cluster members —
    the state ROFL's ring pointers and caches are traded against. *)

val max_stretch_bound : float
(** The scheme's worst-case guarantee (3.0).

    Kept as a reference: the Thorup-Zwick stretch-3 bound test_baselines
    checks every route against. *)
