(** Undirected router-level graphs with per-link latencies.

    The static substrate under intradomain ROFL: routers are dense integer
    indices, links carry a propagation latency in milliseconds.  Dynamic
    state (failed links/routers) lives in {!Rofl_linkstate}; this module is
    purely structural. *)

type t

type link = { u : int; v : int; latency_ms : float }

val create : int -> t
(** [create n] makes a graph over routers [0 .. n-1] with no links. *)

val n : t -> int
(** Number of routers. *)

val m : t -> int
(** Number of (undirected) links. *)

val add_link : t -> int -> int -> latency_ms:float -> unit
(** Add an undirected link.  Self-loops and duplicate links are rejected with
    [Invalid_argument]. *)

val has_link : t -> int -> int -> bool

val latency : t -> int -> int -> float
(** Latency of an existing link; raises [Not_found] otherwise. *)

val neighbors : t -> int -> (int * float) list
(** [(neighbor, latency)] pairs. *)

val links : t -> link list
(** Exported for tests: the tests enumerate every link to fail or check it. *)

val iter_links : t -> (link -> unit) -> unit

val bfs_distances : t -> int -> ?blocked:(int -> bool) -> unit -> int array
(** Hop distances from a source; unreachable routers get [max_int].
    [blocked] marks routers that cannot be traversed (nor reached).

    Exported for tests: test_topology pins the hop distances diameter_hops
    is built on. *)

val connected_components : t -> ?blocked:(int -> bool) -> unit -> int array * int
(** Component label per router and the number of components (blocked routers
    get label [-1]). *)

val is_connected : t -> bool

val diameter_hops : t -> int
(** Exact unweighted diameter over the largest component (BFS from every
    router; fine at the few-hundred-router scale used here).
    Exported for tests: test_topology and test_intra check diameters. *)
