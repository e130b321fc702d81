(** Churn lab: asynchronous churn-and-failure campaigns with steady-state
    SLO metrics.

    A campaign replays a {!Rofl_workload.Churn} trace — hosts joining,
    leaving, moving and crashing on a Poisson schedule — through the
    message-driven {!Rofl_proto.Proto} actor engine while an open-loop
    lookup workload runs concurrently, then reports the steady-state
    service-level numbers the paper's one-shot experiments cannot see:
    lookup success rate and latency percentiles, stale-successor window
    durations, time to reconvergence once the trace drains, and
    control-message overhead per category.

    Determinism: a campaign is a pure function of (seed, graph, params,
    events).  Every random stream is derived from the seed by purpose,
    per-event randomness (gateway placement) is keyed by the event itself
    rather than by trace position — so the doctor's shrinker can drop
    events without reshuffling the rest — and nothing is shared across
    campaigns, so grids of campaigns can fan over {!Rofl_util.Pool} with
    byte-identical results at any jobs setting. *)

type params = {
  horizon_ms : float;           (** churn + lookups run for this long *)
  arrival_rate_per_s : float;   (** Poisson session arrival rate *)
  mean_lifetime_s : float;      (** exponential session lifetime *)
  move_fraction : float;        (** departures that relocate *)
  crash_fraction : float;       (** departures that die silently *)
  lookup_rate_per_s : float;    (** open-loop lookup launch rate (0 = none) *)
  lookup_warmup_ms : float;     (** only target sessions at least this old *)
  drain_max_ms : float;         (** post-horizon budget to reconverge *)
  bootstrap_hosts : int;
  (** extra hosts spliced into the ring at time zero (uniformly random
      placement) — the knob that makes million-host campaigns affordable
      without simulating a million joins *)
  proto_cfg : Rofl_proto.Proto.config;
}

val default_params : params
(** 20 s horizon, 1 arrival/s with 10 s mean lifetime (10% moves, 20%
    crashes), 10 lookups/s after a 1 s warmup, 30 s drain budget, protocol
    defaults. *)

type report = {
  name : string;
  params : params;
  joins : int;                (** joins completed by the protocol *)
  leaves : int;
  moves : int;
  crashes : int;
  join_failures : int;
  lookups : int;              (** lookups resolved (success or failure) *)
  lookups_ok : int;
  success_rate : float;       (** 1.0 when no lookup was launched *)
  lat_p50_ms : float;         (** percentiles over successful lookups *)
  lat_p95_ms : float;
  lat_p99_ms : float;
  stale_count : int;          (** repaired stale-successor windows *)
  stale_p95_ms : float;
  stale_unrepaired : int;     (** windows still open at campaign end *)
  reconverged : bool;         (** ring converged within the drain budget *)
  reconverge_ms : float;      (** last churn event -> convergence; NaN if not *)
  failovers : int;
  rpc_timeouts : int;
  wasted_hops : int;
  (** link traversals charged by losing α-branches and superseded attempts —
      the duplicate-work price of parallel lookups (0 at α = 1) *)
  cancellations : int;        (** cooperative branch cancellations issued *)
  auto_state : (float * float * int) option;
  (** final self-tuning state when [stabilize_auto]: median network-size
      estimate N̂, stabilisation period multiplier, successor-list cap *)
  ctrl_msgs : (string * int) list; (** per-category link traversals, sorted *)
  total_msgs : int;
  msgs_per_event : float;     (** total messages per churn-trace event *)
  peak_queue : int;           (** event-queue high-water mark, summed over shards *)
  events_executed : int;      (** events executed, summed over shards *)
  event_fingerprint : int;
  (** order-insensitive digest of every executed event's (time, rail, seq)
      key — byte-identical across shard counts for the same campaign, the
      quantity the shard-determinism tests compare *)
  sim_end_ms : float;
  audit : Rofl_doctor.Audit.summary option;
  (** checkpoint-audit results when an [?audit] config was supplied *)
  join_rejects : int;
  (** join claims turned away by challenge/response verification *)
  promo_rejects : int;
  (** failover candidates that failed promotion verification *)
  tainted : int;
  (** forged identifiers resident at campaign end (only possible with
      [verify_joins] off) *)
  sybils : int;
  (** mined sybil identifiers an {!Rofl_doctor.Artifact.Eclipse} fault
      joined *)
  grind_draws : int;
  (** keypair draws the attacker paid to mine them — the honest cost of
      aiming self-certifying identifiers at an arc *)
  victim_capture : float;
  (** pre-crash victim-arc sweep: fraction of {!victim_sweep_len} targets
      sampled uniformly from the arc the victim's label owns that resolve
      to a sybil (-1 when the campaign had no eclipse fault) *)
  victim_repair : float;
  (** post-drain sweep over the same targets: fraction resolving to the
      true ring owner of the final membership (-1 without an eclipse
      fault) *)
}

val victim_sweep_len : int
(** Targets per victim-arc SLO sweep (64). *)

type network = {
  name : string;          (** the report's name *)
  graph : Rofl_topology.Graph.t;
  gateways : int array;   (** where hosts attach: joins, moves, lookup origins *)
  groups : int array;     (** router -> PoP, the quota key; [[||]] = none *)
}

val topology :
  seed:int -> Rofl_topology.Isp.profile -> Rofl_topology.Isp.t * Rofl_util.Prng.t
(** The network rule, shared with the static intradomain runs: the ISP
    generated from [Prng.create (seed + Hashtbl.hash profile_name)], and
    that generator, for a caller that keeps drawing from it. *)

val network : seed:int -> Rofl_topology.Isp.profile -> network
(** {!topology}'s graph, named after the profile, with hosts at its edge
    routers and its router->PoP map as the groups. *)

val stream : int -> string -> Rofl_util.Prng.t
(** [stream seed purpose]: one campaign stream. *)

val keyed : int -> string -> 'a -> Rofl_util.Prng.t
(** [keyed seed purpose key]: randomness keyed by an event's content, so
    dropping an event moves no other event's draws. *)

val percentile_or : float list -> float -> default:float -> float
(** {!Rofl_util.Stats.percentile}, or [default] for an empty list. *)

val create_proto :
  seed:int ->
  ?shards:int ->
  ?pool:Rofl_util.Pool.t ->
  ?behaviours:Rofl_proto.Types.behaviour array ->
  lookup_hint:int ->
  cfg:Rofl_proto.Proto.config ->
  bootstrap_hosts:int ->
  network ->
  Rofl_proto.Proto.t
(** The campaign's actor network, seeded from the ["proto"] stream.  Raises
    [Invalid_argument] when the network has no gateway. *)

val observe :
  ?audit:Rofl_doctor.Audit.config ->
  ?extra:(float -> Rofl_doctor.Checks.violation list) ->
  Rofl_proto.Proto.t ->
  (unit -> 'a) ->
  'a * Rofl_doctor.Audit.summary option
(** The run lifecycle: install the auditor when [audit] is given (with
    [extra] checks after the proto checks), start the stabiliser, run,
    stop it, then detach and summarise the auditor.  The auditor is a pure
    observer. *)

val churn_events : seed:int -> params -> Rofl_doctor.Artifact.event list
(** The churn trace a campaign at this seed replays, as doctor events —
    what {!run} replays when given no [?events], exposed so the doctor can
    audit, shrink and persist it. *)

val run :
  seed:int ->
  ?audit:Rofl_doctor.Audit.config ->
  ?shards:int ->
  ?pool:Rofl_util.Pool.t ->
  ?behaviours:Rofl_proto.Types.behaviour array ->
  ?events:Rofl_doctor.Artifact.event list ->
  network ->
  params ->
  report
(** Run a campaign on [network] over an explicit event list — churn plus
    injected faults ({!Rofl_doctor.Artifact.fault}); default
    {!churn_events}.  Joins, moves and lookup origins are placed on the
    network's gateways.  With [?audit], a checkpoint auditor observes the
    run (purely — every table stays byte-identical) and its summary lands
    in the report.  The same (seed, network, params, events) always
    produces the same report, whatever events were dropped: this is the
    replay primitive behind [rofl_sim doctor --replay].

    [?shards] partitions the routers across that many event engines under a
    conservative-window coordinator, and [?pool] runs the shard windows on
    pool domains; both are execution configuration, not campaign identity —
    the report (SLO tables, audit summary, event fingerprint) is
    byte-identical at any shards/pool setting.

    [?behaviours] assigns initial per-router conduct.  Attack faults in the
    event list ({!Rofl_doctor.Artifact.Eclipse} / [Poison] / [Forge])
    execute as global events with all randomness content-keyed on (seed,
    purpose), so adversarial campaigns keep the byte-identical-at-any-shards
    property. *)

val params_to_strings : params -> (string * string) list
(** Flatten params (including the protocol config) to named scalars for a
    repro artifact; floats are hex ([%h]) so the round trip is
    bit-identical. *)

val params_of_strings : (string * string) list -> (params, string) result
(** Rebuild params from artifact lines over {!default_params}; unknown keys,
    malformed scalars and a [lookup_alpha] below 1 are errors.  Keys of
    values that are now {!Rofl_proto.State} constants ([succ_list_len],
    [rpc_timeout_ms], ...), which older artifacts carry, are accepted only
    at the constant's value; any other value is an error naming the key as
    fixed. *)
