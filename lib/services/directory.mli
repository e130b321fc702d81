(** The service-discovery directory over one actor network.

    Name→service resolution is a native workload of routing on flat labels:
    a service is a flat identifier, its provider records live at the ring
    owner of that identifier, and looking one up IS a data-plane owner walk.
    This module ties the three layers together:

    - {e intents} — the authoritative (service, provider, origin) rows an
      origin keeps republishing while active; also the instrumentation
      oracle stale-answer SLOs compare against;
    - {e placed records} — the {!Provider_store} copies at ring owners,
      placed through the α=1 owner walk
      ({!Rofl_proto.Owner.walk_owner}), refreshed each republish period
      and decaying by TTL;
    - {e resolver caches} — one bounded LRU {!Resolver} per querying
      router, with negative entries.

    All mutation happens from campaign global events (every shard parked),
    so one directory is deterministic at any [--shards]/[--jobs]: intents
    are processed in index order and batches in query order.

    Timing discipline: [ttl_ms > republish_period_ms] (2.5x) so a
    steadily-republished record never expires; after an ownership change
    the next republish re-places at the new owner and the old copy decays —
    the residency invariant the doctor audits. *)

val ttl_ms : float
(** 10 s: the record TTL granted by each publish.
    Exported for tests: test_services sweeps one TTL past a publish. *)

val republish_period_ms : float
(** 4 s: the origin republish cadence. *)

type config = {
  alpha : int;                  (** parallel walk branches per resolve miss
                                    (≥ 1); 1 = the sequential pre-α walk *)
  cache : Resolver.config;
}

val default_config : config
(** α = 1, {!Resolver.default_config} caches. *)

type t

val create : proto:Rofl_proto.Proto.t -> routers:int -> hint:int -> config -> t
(** [hint] is the Little's-law load hint — the expected record population
    (active intents) — and pre-sizes the provider store, the intent index,
    and the batch registers; everything grows regardless.  Raises
    [Invalid_argument] if [config.alpha < 1]. *)

val proto : t -> Rofl_proto.Proto.t
val config : t -> config
val store : t -> Provider_store.t

val metrics : t -> Rofl_netsim.Metrics.t
(** Shared accounting: the resolvers' cache hits, misses, negative hits and
    evictions, [svc-publish-msg]/[svc-resolve-msg] link traversals,
    [svc-republish] operations, [svc-expired] TTL drops and
    [svc-stale-answer] oracle disagreements. *)

(** {2 Intents (the publication set)} *)

val register :
  t -> service:Rofl_idspace.Id.t -> provider:Rofl_idspace.Id.t -> origin:int -> int
(** Add (or re-activate) an intent; it publishes on the next
    {!republish_due} call and then every republish period, phase-staggered
    by a content-derived offset so steady state is not a thundering herd.
    Returns the intent index. *)

val unregister : t -> service:Rofl_idspace.Id.t -> provider:Rofl_idspace.Id.t -> bool
(** Deactivate an intent.  Placed copies are {e not} withdrawn — they decay
    by TTL, the staleness the campaign measures. *)

val intent_count : t -> int
val intents_active : t -> int
val intent_active : t -> int -> bool
val intent_service : t -> int -> Rofl_idspace.Id.t
val intent_provider : t -> int -> Rofl_idspace.Id.t

val intent_placement : t -> int -> int
(** Store slot of the intent's current placed copy, revalidated through the
    store's slot generation; [-1] when never placed or already expired. *)

val provider_active :
  t -> service:Rofl_idspace.Id.t -> provider:Rofl_idspace.Id.t -> bool

(** {2 Periodic work (call from campaign global events)} *)

val republish_due : t -> now:float -> int
(** Republish every active intent whose period elapsed: one owner walk
    from each origin toward its service identifier, the record placed where
    the verdict landed.  Returns the number of intents walked. *)

val republish_all : t -> now:float -> int
(** The republish storm: every active intent publishes right now,
    regardless of phase. *)

val sweep : t -> now:float -> int
(** Drop TTL-expired records; returns the count (also charged to
    [svc-expired]). *)

(** {2 Batched resolution} *)

val resolve_batch :
  t -> now:float -> n:int -> from:int array -> services:Rofl_idspace.Id.t array -> unit
(** Resolve [services.(i)] from router [from.(i)] for [i < n]: cache hits
    answer locally at zero latency; each miss walks to its ring owner with
    {!Rofl_proto.Owner.walk_owner} (at [config.alpha]), reads the provider
    records there, and installs a (positive or negative) cache entry.
    Every query is looked up in its cache before any answer is installed,
    so no miss hits an answer installed by another miss of the same batch.
    Miss latency is the charged branch's priced latency plus the
    shortest-path response leg; losing-branch link traversals are billed to
    [svc-resolve-msg] on top — redundancy is real traffic.  Read the
    per-query verdicts with the accessors below before the next batch
    reuses the registers. *)

val resolve_wasted_hops : t -> int
(** Cumulative ring hops burned by losing α-branches of resolve misses
    (0 when [config.alpha = 1]). *)

val resolve_cancellations : t -> int
(** Cumulative cooperative cancellations issued by resolve misses. *)

val served_expired_total : t -> int
(** Sum of {!Resolver.served_expired} over all resolver caches — the
    doctor's no-expired-answer invariant reads this. *)

val res_hit : t -> int -> bool
val res_positive : t -> int -> bool
val res_ok : t -> int -> bool
val res_stale : t -> int -> bool
val res_latency_ms : t -> int -> float
