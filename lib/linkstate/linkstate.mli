(** OSPF-like link-state substrate.

    ROFL assumes "an underlying OSPF-like protocol that provides a network
    map (and not routes to hosts) and can identify link failures in the
    physical network" (§2.1).  This module is that substrate: a dynamic view
    over a {!Rofl_topology.Graph.t} with failable links and routers, shortest
    paths (Dijkstra over link latencies), source-route validity checks,
    failure notifications, and the LSA flood cost model used when the
    experiments charge messages for topology dissemination. *)

(** Shortest paths are served from per-source Dijkstra trees that are grown
    on demand (a single-pair query settles only as far as its destination)
    and invalidated *per event*: failing or restoring an element drops only
    the cached trees whose paths that element can actually have changed,
    instead of the former global version bump that discarded every tree on
    every event.

    The kernel is allocation-free on a warm tree: flat adjacency arrays, a
    binary heap over unboxed arrays ordered by (distance, push order), and
    queries that read the tree's labels directly.  A tree is two blocks the
    GC never scans: its distances, and one byte block of parents, hop
    counts and settled flags.  Callers that only price
    a path use {!price_hop_into} and {!iter_path}; only callers that store a
    route build a {!route} block. *)

type t

type event =
  | Link_down of int * int
  | Link_up of int * int
  | Router_down of int
  | Router_up of int

val create : Rofl_topology.Graph.t -> t
(** The graph must not gain links afterwards: its adjacency is copied.
    Raises [Invalid_argument] for a graph of 65,535 routers or more: a tree
    stores parents and hop counts as 16-bit fields. *)

val graph : t -> Rofl_topology.Graph.t

val on_event : t -> (event -> unit) -> unit
(** Register a callback invoked synchronously on every topology change —
    the "notifies the routing layer of such events" hook. *)

val fail_link : t -> int -> int -> unit
(** Mark a link down (idempotent; the link must exist in the graph). *)

val restore_link : t -> int -> int -> unit

val fail_router : t -> int -> unit
(** Mark a router down; its links are implicitly unusable. *)

val restore_router : t -> int -> unit

val router_alive : t -> int -> bool

val link_alive : t -> int -> int -> bool
(** Both endpoints alive and the link not failed. *)

val reachable : t -> int -> int -> bool
(** Both routers alive and connected over live links: [distance_to <> None],
    read from connected-component labels that the first query after an
    event rebuilds with one breadth-first search.  Grows no SPF tree; a warm
    query allocates nothing. *)

val min_hops : t -> int -> int -> int
(** Minimum hop count between two routers over live links, ignoring
    latency; -1 when either is dead or they are partitioned.  Read from a
    per-source row that the first query from [a] after an event fills with
    one breadth-first search (the kernel behind {!reachable}); every event
    retires all rows.  Grows no SPF tree; a warm query allocates nothing.
    Raises [Invalid_argument] for a router outside the graph. *)

val route : t -> int -> int -> Bytes.t
(** Latency-shortest live path as a route block: one little-endian uint16
    router index per hop, [src] first and [dst] last (one router when
    [src = dst]).  The block is exactly [2 * (hops + 1)] bytes, one
    allocation sized from the tree's hop count and filled from its parent
    chain.  A dead endpoint or a partition gives one shared empty block. *)

val distance_to : t -> int -> int -> float option
(** Early-exit single-pair latency distance; equals {!distance_latency}.

    Exported for tests: test_linkstate checks the early-exit query against a
    reference Dijkstra. *)

val distance_hops : t -> int -> int -> int option
(** Hop length of {!route} (0 when [src = dst]). *)

val distance_to_nan : t -> int -> int -> float
(** Unboxed {!distance_to} for per-hop pricing loops: same answer, NaN
    instead of [None].  On a warm tree this allocates nothing, where the
    option form costs ~17 words per call in closures and boxes. *)

val distance_hops_count : t -> int -> int -> int
(** Unboxed {!distance_hops}: -1 instead of [None]. *)

val price_hop_into : t -> int -> int -> latency:float array -> int -> int
(** [price_hop_into t src dst ~latency i] adds the src→dst latency into
    [latency.(i)] and returns the hop count of the same path, [-1] (and no
    write) when unreachable.  Fuses {!distance_to_nan} and
    {!distance_hops_count} into one settle with no boxed return.  The
    latency added is bit-identical to folding {!Rofl_topology.Graph.latency}
    left to right over the links of {!route}.  Allocation-free on a warm
    tree. *)

val iter_path : t -> int -> int -> ('a -> int -> unit) -> 'a -> unit
(** [iter_path t src dst f x] calls [f x r] for every router [r] of {!route}
    [t src dst], from [dst] back to [src]; nothing when unreachable.  Builds
    no route, and passing a top-level [f] with its argument [x] allocates no
    closure either. *)

val distance_latency : t -> int -> int -> float option
(** Total latency of {!route}.

    Exported for tests: test_linkstate checks incremental SPF latencies
    against fresh builds and a reference Dijkstra. *)

val next_hop : t -> int -> int -> int option
(** First hop on {!route} from [src] towards [dst] ([None] when [src = dst]
    or unreachable), found by walking the parent chain. *)

val healthy : t -> bool
(** No failed links and no failed routers — O(1).  When healthy, every
    route whose consecutive pairs are graph links is necessarily valid,
    which lets per-hop route validation short-circuit. *)

val valid_source_route : t -> Bytes.t -> int -> bool
(** [valid_source_route t b start]: the suffix of route block [b] from hop
    [start] on is non-empty, all its consecutive pairs are live links and
    all its routers alive — the check a router performs before using a
    cached source route.  Scans the slice in place. *)

val lsa_flood_cost : t -> int
(** Messages for one LSA flood: one per live directed link (2·live links) —
    the cost model for CMU-ETHERNET-style flooding and zero-ID piggyback
    accounting. *)

val diameter_hops : t -> int
(** Max eccentricity over live routers (0 if none). *)
