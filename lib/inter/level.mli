(** Hierarchy levels for Canon-style ring merging (§4).

    A {e level} is a node of the (conceptual) merge hierarchy: a real AS
    (its ring holds every identifier joined in its customer cone), a virtual
    AS wrapping a peering link or clique (§4.2, Fig. 4a), or the root —
    the tier-1 clique's virtual AS, whose ring is the global one.

    The context memoises each AS's provider climb (as flat arrays) and its
    real-level list, so that level-restricted valley-free distances (the
    cost of following an external pointer at a level without violating
    isolation) are cheap.  A context carries scratch for {!route_within}:
    it belongs to one task and must not be shared across domains. *)

type t =
  | Root
  | Real of int       (** a real AS; members are its customer cone *)
  | Peer_group of int (** index into the virtual-AS table *)

type ctx

val make_ctx : Rofl_asgraph.Asgraph.t -> ctx
(** Builds the virtual-AS table: one virtual AS per peering link among
    non-tier-1 ASes (tier-1 peering is the root).  The graph must not gain
    edges afterwards: the context's memos are never invalidated. *)

val graph : ctx -> Rofl_asgraph.Asgraph.t

val policy : ctx -> Rofl_asgraph.Policy.t

val equal : t -> t -> bool

val key : ctx -> t -> int
(** Dense index in [\[0, n + vas_count ctx\]] for a graph of [n] ASes: a
    real AS is its own index, virtual ASes follow, and [Root] is last. *)

val to_trace : t -> Rofl_routing.Trace.level
(** The level as a per-hop trace event names it. *)

val to_string : t -> string

val member : ctx -> t -> int -> bool
(** Is an AS inside this level's subtree? *)

val breadth : ctx -> t -> int
(** Number of ASes the level spans ([max_int] for [Root]) — the bottom-up
    ordering key. *)

val subsumes : ctx -> outer:t -> inner:t -> bool
(** Does [outer]'s subtree contain the whole of [inner]'s?  Used to keep a
    packet's level ceiling monotonically narrowing. *)

val vas_count : ctx -> int
(** Exported for tests: test_inter's level-kernel property draws peer groups
    by it. *)

val vas_members : ctx -> int -> int list
(** The (two or more) ASes a virtual AS spans. *)

val up_distance : ctx -> int -> int -> int option
(** [up_distance ctx x a]: provider-edge hops climbing from [x] to [a];
    [None] if [a] is not an ancestor.  Memoised. *)

val route_within : ctx -> t -> int -> int -> (int * int list) option
(** Shortest valley-free AS path between two ASes using only ASes inside the
    level (with the virtual AS additionally allowing its peer hop).  Returns
    (hops, inclusive AS path).  [None] when disconnected at this level.
    Among equal-cost peaks the first in the source's climb order wins. *)

val distance_within : ctx -> t -> int -> int -> int option
(** Hops of {!route_within}, without building the path.  Symmetric: the
    cost counts provider hops up from both ends and at most one peer hop,
    with every AS checked against the level on either side. *)

val levels_for_real : ctx -> int -> t list
(** Bottom-up list of real-AS levels in an AS's up-hierarchy (the AS itself
    first), ending with [Root]. *)

val single_homed_chain : ctx -> int -> t list
(** Bottom-up chain through the deterministic primary provider only, ending
    with [Root]. *)

val peer_levels : ctx -> int -> t list
(** The virtual-AS levels adjacent to any member of an AS's up-hierarchy —
    the extra joins of the recursively-multihomed + peering strategy. *)
