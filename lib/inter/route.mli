(** Interdomain data-plane routing.

    Greedy routing over the derived per-level successor pointers and fingers
    under the lowest-level-first rule: at each step the packet follows the
    best candidate at the lowest level that still makes clockwise progress,
    which preserves the isolation property (§4.1).  Pointer caches shortcut
    when their bloom guard allows (§4.1); in bloom-filter peering mode, the
    AS checks its peers' filters and crosses the peering link directly,
    backtracking on false positives (§4.2).

    A walk allocates per call, not per hop: its candidates and picked move
    are registers of one state record, the AS path grows in the network's
    scratch ([Net.walk]) and becomes a list once, and each move's route is
    read from the level scratch ({!Level.route_within}).  That scratch
    belongs to the network, so a walk must not be re-entered: nothing may
    start another walk or a join on the same network until it returns. *)

type result = {
  delivered : bool;
  as_hops : int;           (** total AS-level hops charged *)
  as_path : int list;      (** ASes traversed, inclusive, in order *)
  pointer_hops : int;      (** ring pointer traversals *)
  cache_hops : int;        (** of which, cache shortcuts *)
  peer_crossings : int;
  backtracks : int;        (** bloom false-positive reversals *)
  max_level_breadth : int; (** cone size of the widest level used *)
  trace : Rofl_routing.Trace.t;
  (** per-hop events, in walk order: those of the [trace] sink, [[]]
      without one *)
}

val route_from :
  ?trace:Rofl_routing.Trace.builder ->
  Net.t -> src:Net.host -> dst:Rofl_idspace.Id.t -> result
(** Route one packet from a source host's AS towards an identifier.
    Charged to the [data] category: load at every AS of each move's route,
    in path order, and the move's hops.  [trace] is the sink for per-hop
    events, as in {!Rofl_intra.Network.lookup}: only trace readers pass
    one, and without it the walk records nothing. *)

val stretch_vs_bgp : Net.t -> src:Net.host -> dst:Rofl_idspace.Id.t -> float option
(** ROFL AS-hops over the BGP policy-path length between the two home ASes —
    the paper's interdomain stretch metric (§6.1).  Same-AS pairs and
    undeliverable packets yield [None]. *)

val isolation_respected : Net.t -> result -> src:Net.host -> dst:Rofl_idspace.Id.t -> bool
(** Check the paper's isolation property on a routed path: every traversed
    AS lies within the subtree of some common ancestor of the two home ASes.
    Routes that crossed a peering link or took a bloom-guarded cache
    shortcut are exempt — those mechanisms deliberately trade the
    lca-containment form of the property for stretch while still keeping
    subtree-internal traffic internal (§4.1–4.2). *)

