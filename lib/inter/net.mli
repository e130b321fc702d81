(** Interdomain ROFL state: per-level rings, joins, per-AS caches (§4).

    Each AS is modelled as a single node, as in the paper's interdomain
    simulations (§6.1).  Ring membership per level is the ground truth from
    which steady-state successor pointers are derived; joins charge the
    messages the Canon-style join protocol (Algorithm 3) would send, and
    routing (see {!Route}) walks the derived pointers under the
    lowest-level-first rule that preserves isolation.

    Peering is supported two ways (§4.2): virtual ASes (extra joins across
    peer links) or bloom filters (no peering joins; peers' filters checked in
    the data plane, with backtracking on false positives — modelled
    analytically at the configured false-positive rate, with the state cost
    accounted per AS). *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring

type peering_mode = No_peering | Virtual_as | Bloom_filters

type strategy = Ephemeral | Single_homed | Multihomed | Peering

type config = {
  finger_budget : int;     (** proximity fingers acquired per host join *)
  cache_capacity : int;    (** per-AS interdomain pointer-cache entries *)
  peering_mode : peering_mode;
  bloom_fpr : float;       (** false-positive rate of per-AS bloom filters *)
  dedup_lookups : bool;    (** eliminate redundant same-successor lookups (§6.3) *)
  fingers_root_only : bool; (** ablation: place all fingers at Root instead of
                                bottom-up across levels *)
}

val default_config : config

type host = {
  id : Id.t;
  home_as : int;
  strategy : strategy;
  ptr : Rofl_core.Pointer.t;
  (** the cached pointer every AS on a join path stores for this host *)
  joined : Level.t list; (** bottom-up *)
  mutable fingers : (Level.t * Id.t) list;
  mutable alive_h : bool;
}

type t = {
  ctx : Level.ctx;
  cfg : config;
  rng : Rofl_util.Prng.t;
  rings : host Ring.t array;
  (** indexed by {!Level.key}; a level holds [unjoined] until {!ring}
      first asks for it *)
  unjoined : host Ring.t;
  (** the empty ring shared by every slot of [rings] and [resident_rings]
      not yet used; never updated *)
  as_level_cache : (int, Level.t list) Hashtbl.t;
  hosts : (Id.t, host) Hashtbl.t;
  resident_rings : host Ring.t array;
  (** per AS, ring-ordered; [unjoined] until the AS's first resident joins *)
  caches : Rofl_core.Pointer_cache.t array; (** per AS; dst_router = AS id *)
  bloom_counts : int array;
  (** per AS, bloom-filter peering only: live ids summarised below it *)
  failed_as : (int, unit) Hashtbl.t;
  metrics : Rofl_netsim.Metrics.t;
}

val create : ?cfg:config -> rng:Rofl_util.Prng.t -> Rofl_asgraph.Asgraph.t -> t

val ring : t -> Level.t -> host Ring.t

val as_alive : t -> int -> bool

val locate : t -> Id.t -> int option
(** Home AS of a live identifier. *)

val host_count : t -> int
(** Exported for tests: test_inter_edge and test_routing count hosts. *)

type join_outcome = {
  host : host;
  lookup_msgs : int;  (** per-level predecessor/successor discovery *)
  finger_msgs : int;  (** finger acquisition *)
}

val join : t -> as_idx:int -> strategy:strategy -> join_outcome
(** Join a fresh random identifier (Algorithm 3 driven across the strategy's
    level set): per-level predecessor lookup and successor notification
    charged along level-respecting AS routes; redundant lookups that resolve
    to the same successor are elided when [dedup_lookups] (the §6.3
    optimisation); fingers acquired per the budget (one message each, §4.1);
    caches along join paths pick the identifier up. *)

val join_id : t -> as_idx:int -> id:Id.t -> strategy:strategy -> (join_outcome, string) result
(** Exported for tests: tests join chosen identifiers; join draws random
    ones through it. *)

val remove_host : t -> Id.t -> int
(** Graceful teardown: the ID leaves every ring; per-level neighbours that
    lose their successor are notified (charged to [teardown]).  Returns
    messages charged.

    Kept as the interdomain host-departure mechanism.  No experiment calls
    it: the removal arms of the [test_inter] and [test_routing] invariant
    properties and the bench [rofl/inter-join] row exercise it, and the
    deferred mobility workload would.  A departure probes every AS's pointer cache
    for the identifier, O(#AS) (~1,100 on the default Internet); a reverse
    index would make it O(caches holding it), but no experiment pays this
    cost yet. *)

val bloom_check : t -> int -> home:int -> bool
(** Is an identifier homed at [home] below the AS according to its bloom
    filter — exact membership plus false positives at the configured rate.
    [home] is the identifier's home AS, [-1] when no live host holds it. *)

val bloom_state_bits : t -> int -> float
(** Modelled bloom state at an AS (bits): 10 bits per identifier it
    summarises. *)

val count_in_blooms : t -> int -> int -> unit
(** [count_in_blooms t home delta] adds [delta] to the bloom count of every
    AS above [home] (bloom-filter peering only): what a live identifier
    homed at [home] joining ([1]) or leaving ([-1]) does to them. *)

val strategy_to_string : strategy -> string

val effective_levels : t -> int -> strategy -> Level.t list
(** The bottom-up level set a host with this strategy joins from an AS.

    Exported for tests: test_inter_edge checks the bottom-up level set each
    join strategy uses. *)

val as_levels : t -> int -> Level.t list
(** The bottom-up level set an AS participates in (all its ancestor levels,
    adjacent peer groups under virtual-AS peering, and Root) — the aggregate
    ring knowledge available to the data plane at that AS.  Memoised. *)
