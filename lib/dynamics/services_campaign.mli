(** Service-discovery campaigns: TTL'd provider records, republish,
    resolver caching, and flash-crowd resolution demand over one running
    actor network.

    A campaign registers [services x
    Rofl_workload.Services.providers_per_service] provider intents at
    content-keyed edge gateways, then drives an open loop of Zipf-skewed
    resolutions ({!Rofl_workload.Services}) batched on a tick
    cadence through {!Rofl_services.Directory.resolve_batch} — cache hits
    local, each miss one priced owner walk
    ({!Rofl_proto.Owner.walk_owner}).  Provider flaps
    toggle intents (the stale-answer source), republish runs on the
    directory's phase-staggered schedule (or all at once as a storm), and
    TTL sweeps drop decayed records.  The report is the layer's SLO sheet:
    resolution correctness against the intent oracle, latency percentiles,
    cache hit ratio, stale-answer rate, and control-message cost.

    Determinism: every directory mutation and every resolution batch runs
    in a global event with all shards parked, and all randomness derives
    from (seed, purpose) or per-event content keys — reports are
    byte-identical at any [--shards]/[--jobs]. *)

type params = {
  horizon_ms : float;
  drain_ms : float;            (** extra ticks past the horizon: republish
                                   and sweeps only, no new demand *)
  bootstrap_hosts : int;
  services : int;
  rate_per_s : float;
  flash_start_ms : float;
  flash_len_ms : float;        (** <= 0 disables the flash crowd *)
  storm_at_ms : float;         (** <= 0 disables the republish storm *)
  dir_cfg : Rofl_services.Directory.config;
  proto_cfg : Rofl_proto.Proto.config;
}

val default_params : params

type report = {
  name : string;
  params : params;
  resolves : int;
  hits : int;                  (** positive cache hits *)
  neg_hits : int;
  misses : int;
  hit_ratio : float;           (** (hits + neg_hits) / resolves *)
  ok : int;
  ok_rate : float;             (** oracle-correct sign: providers for live
                                   services, negative for unknown/dead ones *)
  stale : int;
  stale_rate : float;          (** answers containing decayed data *)
  lat_p50_ms : float;          (** over all resolutions; hits are local = 0 *)
  lat_p95_ms : float;
  lat_p99_ms : float;
  miss_p95_ms : float;         (** over owner-walk resolutions only *)
  republishes : int;
  publish_msgs : int;          (** link traversals of publish walks *)
  resolve_msgs : int;          (** link traversals of miss resolutions,
                                   losing α-branch traffic included *)
  resolve_wasted : int;        (** ring hops burned by losing α-branches *)
  resolve_cancels : int;       (** cooperative branch cancellations issued *)
  expired : int;               (** records dropped by TTL sweeps *)
  served_expired : int;        (** must be 0 without the serve-stale knob *)
  records_live : int;
  intents_active : int;
  ctrl_msgs : int;             (** proto + publish + resolve traversals *)
  ctrl_per_s : float;
  peak_queue : int;
  events_executed : int;
  event_fingerprint : int;
  sim_end_ms : float;
  audit : Rofl_doctor.Audit.summary option;
}

val run :
  seed:int ->
  ?audit:Rofl_doctor.Audit.config ->
  ?shards:int ->
  ?pool:Rofl_util.Pool.t ->
  Campaign.network ->
  params ->
  report
(** Run a campaign on the network (see {!Campaign.network}); providers
    and resolvers attach at its gateways.  Demand is batched every 100 ms
    and providers flap once a second on average.  When [audit] is given,
    {!Rofl_doctor.Checks.services_checks} rides the checkpoint sweeps
    alongside the proto invariants. *)
