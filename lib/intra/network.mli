(** Intradomain ROFL: ring construction, joins, and greedy lookup.

    One [t] models a single AS: a router topology with its link-state
    substrate, one default virtual node per router (joined by flooding at
    bootstrap, §3.1), and a growing population of host identifiers resident
    at gateway routers.  Pointer caches at every router are filled from
    control traffic only, as in the paper's experiments (§6.1).

    The record types are deliberately transparent: {!Forward},
    {!Failure} and {!Invariant} operate on the same state. *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Vnode = Rofl_core.Vnode
module Pointer = Rofl_core.Pointer
module Pointer_cache = Rofl_core.Pointer_cache

type config = {
  succ_group_size : int;     (** successors kept per vnode (>= 1) *)
  pred_group_size : int;
  cache_capacity : int;      (** pointer-cache entries per router *)
  cache_control_paths : bool;(** fill caches from join/control traffic *)
  sybil_limit : int;         (** max resident IDs per router (audit, §2.1) *)
}

val default_config : config
(** 4 successors, 2 predecessors, 1024 cache entries, caching on, sybil
    limit 100k. *)

module Vnode_table : Hashtbl.S with type key = Id.t
(** Tables keyed by identifier, hashed with {!Id.hash}.  Their iteration
    order is the hash's: {!members} gives the stated one. *)

type router = {
  idx : int;
  default_vnode : Vnode.t;
  mutable residents : Vnode.t list; (** alive vnodes hosted here, incl. default *)
  cache : Pointer_cache.t;
  auditor : Rofl_crypto.Identity.sybil_auditor;
  (** ephemeral identifiers attached below this router's resident
      predecessors: id -> router currently hosting the ephemeral host *)
  attachments : (Id.t, int) Hashtbl.t;
}

type t = {
  graph : Rofl_topology.Graph.t;
  ls : Rofl_linkstate.Linkstate.t;
  rng : Rofl_util.Prng.t;
  cfg : config;
  routers : router array;
  metrics : Rofl_netsim.Metrics.t;
  vnodes : Vnode.t Vnode_table.t;     (** every alive vnode, any class *)
  oracle : Vnode.t Ring.t;            (** ring members (default + stable) *)
  mutable bootstrap_msgs : int;       (** flood cost of router bootstrap *)
  latency_reg : float array;
  (** two scratch cells the control messages add their path latency into,
      so no latency is boxed; not state *)
}

val create : ?cfg:config -> rng:Rofl_util.Prng.t -> Rofl_topology.Graph.t -> t
(** Build the AS: spawns and rings the default virtual nodes of every router,
    charging their bootstrap floods to the [flood] category. *)

val router_id : int -> Id.t
(** Deterministic router-ID for router index [i] (hash-derived, uniform). *)

type lookup_status =
  | Delivered of Vnode.t    (** exact identifier found, resident here *)
  | Predecessor of Vnode.t  (** closest preceding ring member *)
  | Stuck of int            (** no progress possible at this router *)

type lookup_result = {
  status : lookup_status;
  msgs : int;          (** physical messages charged *)
  latency_ms : float;  (** serial propagation latency of the walk *)
  visited : Rofl_core.Sourceroute.t;
  (** routers traversed, in order, inclusive of start, as one exact-size
      route block; the empty block unless the caller asked for it *)
  trace : Rofl_routing.Trace.t;
  (** per-hop events, in walk order: those of the [trace] sink, [[]]
      without one *)
}

val lookup :
  ?exclude:Id.t ->
  ?trace:Rofl_routing.Trace.builder ->
  ?visited:bool ->
  t -> from:int -> target:Id.t -> category:Rofl_netsim.Metrics.counter ->
  use_cache:bool -> lookup_result
(** Greedy walk from a router towards [target]: at each router the closest
    non-overshooting identifier known (resident IDs, their successor
    pointers, pointer-cache) picks the next source route (Algorithm 2
    generalised to termination at the predecessor).  [exclude] removes one
    identifier from candidacy — used when an existing member re-joins and
    must not find itself.  [trace] is the sink for per-hop events; only
    trace readers pass one, and without it the walk records nothing.  Give
    each lookup a fresh builder: the result's [trace] is all of its
    events.  The result's [visited] holds the routers traversed only with
    [~visited:true]: the walk writes them into a per-domain scratch block
    and copies it out once, exact-size, at the end.  By default it is the
    empty block and the walk allocates nothing per hop. *)

type candidate =
  | Local of Vnode.t    (** an identifier resident at the ranking router *)
  | Remote of Pointer.t (** a successor pointer (or a cache entry) *)

val rank_residents :
  ?exclude:Id.t -> t -> cur:int -> target:Id.t -> Vnode.t list -> candidate option
(** The resident stage of a lookup's per-hop ranking at router [cur],
    over the given residents and their successor columns (a walk passes
    the router's own residents, then probes the pointer cache): the
    closest candidate to [target] that does not overshoot, ties to the
    earlier.  Dead residents, ephemeral ones other than [target] itself,
    successors hosted at [cur], [exclude] and, after a failure, successors
    whose source route is broken are skipped.

    Exported for tests: test_intra checks the resident ranker against a
    list-scan reference. *)

type join_outcome = {
  vnode : Vnode.t;
  join_msgs : int;     (** messages charged for this join *)
  join_latency_ms : float;
}

val join_host :
  t -> gateway:int -> id:Id.t -> cls:Vnode.host_class -> (join_outcome, string) result
(** Algorithm 1: authenticate (optional), spawn the vnode, locate the
    predecessor, splice succ/pred state, notify the successor, fill caches
    along the control paths.  Ephemeral hosts only establish the
    predecessor attachment (§2.2). *)

val join_fresh_host :
  t -> gateway:int -> cls:Vnode.host_class -> (Id.t * join_outcome, string) result
(** Generate a keypair, derive the self-certifying identifier, and join with
    the full handshake. *)

val leave_host : t -> Id.t -> (unit, string) result
(** Graceful leave: like a failure but without detection timeouts; tears
    down and repairs neighbours (charged to [teardown]/[repair]). *)

val find_vnode : t -> Id.t -> Vnode.t option

val is_live : t -> Id.t -> bool
(** [id] is a live member: the option-free form of {!find_vnode}'s
    [Some v when v.alive], for sweeps that test every pointer. *)

val oracle_successor_of : t -> Vnode.t -> Ring.cursor
(** The oracle ring's successor of [vn] within its connected component:
    the first member clockwise that is alive and reachable from [vn]'s
    router, as a cursor into {!t.oracle} ({!Ring.cursor_none} when there is
    none but [vn]).  Under a partition this is the per-component ring the
    zero-ID protocol converges to (§3.2).  One search, then cursor steps:
    nothing is allocated.  The cursor dies at the oracle's next change. *)

val iter_members : t -> (Vnode.t -> unit) -> unit
(** Every vnode of {!t.vnodes} in a stated order, not the table's hash
    order: the ring members (default and stable) in ring order from
    {!Id.zero}, then the ephemeral identifiers in identifier order.  The
    ring members are read in place, so [f] must not join or remove a
    default or stable identifier (the walk raises [Invalid_argument] if it
    does); the ephemeral ones are those present when the call starts. *)

val spf_route : t -> int -> int -> Rofl_core.Sourceroute.t
(** Link-state shortest route between two routers, a fresh block from
    {!Rofl_linkstate.Linkstate.route}; the empty block when unreachable.

    Exported for tests: test_routing builds the stale route it plants. *)

val charge_spf_into :
  Rofl_linkstate.Linkstate.t -> Rofl_netsim.Metrics.t -> Rofl_netsim.Metrics.counter ->
  int -> int -> latency:float array -> int -> int
(** [charge_spf_into ls m c src dst ~latency i] charges a message travelling
    the shortest path from [src] to [dst] exactly as
    {!Rofl_netsim.Metrics.charge_path} over the routers of
    {!Rofl_linkstate.Linkstate.route} would: one [c] message per link and
    one load unit per router on the path, nothing for a one-router path.  It adds the path latency into
    [latency.(i)] and returns the hop count, or [-1] (charging nothing) when
    unreachable.  Priced from the tree's labels; no route is built. *)

val make_pointer :
  t -> Pointer.kind -> from_router:int -> dst:Id.t -> dst_router:int -> Pointer.t option
(** Pointer with a fresh SPF source route; [None] if unreachable. *)

val cache_route_to : t -> Id.t -> int -> Rofl_core.Sourceroute.t -> unit
(** [cache_route_to t id dst_router route] lets every router along [route]
    other than [dst_router] cache a pointer to [id], when
    [cache_control_paths] is on and [route] ends at [dst_router]: each
    pointer is [route] itself from that router's hop on, so one block
    serves the whole control path.

    Exported for tests: test_routing plants a stale cache entry through the
    join's own control-path caching. *)

val ring_size : t -> int
(** Ring members (stable + default vnodes).

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

val host_count : t -> int
(** Stable + ephemeral host identifiers currently alive.
    Exported for tests: test_intra and test_routing count the joined hosts. *)

val router_state_entries : t -> int -> int
(** Ring-state pointer entries pinned at a router (vnode succ/pred lists +
    ephemeral attachments) — the §6.2 memory metric. *)

val avg_router_state_entries : t -> float

val stabilize : t -> category:Rofl_netsim.Metrics.counter -> int
(** Ring-order stabilisation sweep (the §3.2 zero-ID chain repair): every
    member whose successor pointer disagrees with its component's expected
    successor re-points, charging a repair round trip; dead and unreachable
    group entries are pruned.  Idempotent once converged (then it charges
    nothing).  Returns messages charged under [category]. *)

val rejoin_ring : t -> Vnode.t -> category:Rofl_netsim.Metrics.counter -> int
(** Re-run the ring splice for an already-resident member (partition merge,
    §3.2): locate its current predecessor — excluding itself — and splice
    succ/pred state afresh.  Returns messages charged under [category]. *)

val repair_successor : t -> Vnode.t -> unit
(** Restore a vnode's successor state after its first successor died: shift
    the successor group if possible, otherwise re-lookup (charged to
    [repair]). *)

val repair_predecessor : t -> Vnode.t -> unit
