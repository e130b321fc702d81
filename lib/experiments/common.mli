(** Shared experiment plumbing: scales, seeded builders, formatting.

    Every figure module consumes a {!scale} so the benchmark harness can run
    the full reproduction or a quick variant, and obtains its simulated
    networks through the builders here so that figures drawing on the same
    population share one construction. *)

type scale = {
  seed : int;
  intra_hosts : int;       (** host identifiers joined per ISP *)
  intra_pairs : int;       (** data-packet samples per measurement *)
  isps : Rofl_topology.Isp.profile list;
  inter_hosts : int;       (** identifiers joined in the interdomain net *)
  inter_pairs : int;
  inter_params : Rofl_asgraph.Internet.params;
  pop_ids_grid : int list; (** Fig. 7 x-axis: IDs per PoP *)
  cache_grid : int list;   (** Fig. 6a x-axis: pointer-cache entries/router *)
  inter_cache_grid : int list; (** Fig. 8c x-axis: entries/AS *)
  finger_grid : int list;  (** Fig. 8b finger budgets *)
  churn_horizon_ms : float;     (** churn-lab campaign horizon *)
  churn_arrival_per_s : float;  (** churn-lab session arrival rate *)
  churn_lookup_per_s : float;   (** churn-lab open-loop lookup rate *)
  churn_lifetimes_s : float list;
  (** churn-rate axis: mean session lifetimes, high to low *)
  churn_periods_ms : float list;
  (** stabilisation periods swept at the highest churn rate *)
  churn_bootstrap_hosts : int;
  (** megachurn population spliced into the ring at time zero
      (10^6 at full scale; [rofl_sim megachurn --hosts N] overrides) *)
  svc_horizon_ms : float;    (** services-lab campaign horizon *)
  svc_services : int;        (** published service names *)
  svc_rate_per_s : float;    (** baseline resolution demand *)
  svc_bootstrap_hosts : int; (** ring population under the directory *)
  svc_cache_grid : int list;
  (** resolver cache capacities swept under the flash crowd (0 = no cache) *)
  attack_horizon_ms : float;   (** attack-lab campaign horizon *)
  attack_sybils : int list;    (** eclipse axis: mined sybils per campaign *)
  attack_poison_fracs : float list;
  (** poison axis: fraction of routers fabricating stabilisation backups *)
  attack_forges : int list;    (** forge axis: forged-credential joins *)
}

val full : scale
(** The reproduction scale used for EXPERIMENTS.md. *)

val quick : scale
(** A fast variant for CI/tests (minutes, not tens of minutes). *)

val set_jobs : int -> unit
(** Cap the number of domains the experiment engine fans work items over
    (clamped to at least 1; defaults to [Domain.recommended_domain_count]).
    [set_jobs 1] forces strictly sequential execution. *)

val jobs : unit -> int
(** Kept for the bench harness, which records the jobs setting in its header and
    BENCH.json. *)

val set_shards : int -> unit
(** Partition campaign engines into this many shards (clamped to at least
    1, the default).  Pure execution configuration: the conservative-window
    coordinator keeps every table byte-identical at any value. *)

val shards : unit -> int

val set_alpha : int -> unit
(** Parallel lookup branches for campaign engines ([--alpha], default 1;
    raises [Invalid_argument] below 1).  Unlike jobs/shards this is experiment identity,
    not execution configuration: α changes which walks run and what they
    cost, so tables at different α legitimately differ. *)

val alpha : unit -> int

val pool : unit -> Rofl_util.Pool.t
(** The shared domain pool (built lazily at the current jobs setting) —
    what campaign runners hand to the shard coordinator so shard windows
    execute on pool domains. *)

val parallel_map : ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving map over the shared domain pool.  Work items must be
    self-contained: each derives its own {!Rofl_util.Prng.t} from a fixed
    seed, so the result — and every table assembled from it — is
    byte-identical to a sequential run at any jobs setting. *)

type intra_run = {
  isp : Rofl_topology.Isp.t;
  net : Rofl_intra.Network.t;
  ids : Rofl_idspace.Id.t array;        (** joined host identifiers *)
  join_msgs : int list;                 (** per join, in join order *)
  join_latency : float list;
  checkpoints : (int * int * float) list;
  (** (hosts joined, cumulative ROFL join msgs, avg router ring-state
      entries) at log-spaced points *)
  gateway_rng : Rofl_util.Prng.t; (** as the joins left it; only copied *)
}
(** Once built, a run's rings, cache contents and generators never change:
    consumers only route on it, and draw gateways from their own copy. *)

val gateway_sampler : intra_run -> unit -> int
(** PoP-weighted gateways, drawn from a copy of [gateway_rng]. *)

val build_intra :
  ?cfg:Rofl_intra.Network.config ->
  seed:int -> hosts:int -> Rofl_topology.Isp.profile -> intra_run
(** Generate the ISP, bootstrap ROFL, join [hosts] stable identifiers via
    PoP-weighted gateways, recording per-join costs and checkpoints. *)

val default_intra_run : scale -> Rofl_topology.Isp.profile -> intra_run
(** [build_intra] at the scale's default parameters, memoised per profile so
    Fig. 5 and Fig. 6 share one construction. *)

type inter_run = {
  inet : Rofl_asgraph.Internet.t;
  net : Rofl_inter.Net.t;
  hosts_arr : Rofl_inter.Net.host array;
  lookup_msgs : int list; (** per join, in join order *)
}

val build_inter :
  ?cfg:Rofl_inter.Net.config ->
  seed:int ->
  hosts:int ->
  strategy:Rofl_inter.Net.strategy ->
  Rofl_asgraph.Internet.params ->
  inter_run
(** Generate the AS graph (cached per (seed, params)), join [hosts]
    identifiers at Zipf-popular stub ASes with the given strategy.
    Memoised: consumers only route on the network. *)

val build_inter_uncached :
  ?cfg:Rofl_inter.Net.config -> seed:int -> hosts:int -> strategy:Rofl_inter.Net.strategy ->
  Rofl_asgraph.Internet.params -> inter_run
(** [build_inter] unmemoised, for a consumer that fails part of the network. *)

val log_checkpoints : int -> int list
(** 1, 2, 5, 10, 20, 50 … up to and including [n]. *)

val hop_mix : Rofl_routing.Trace.t list -> (string * int) list
(** Aggregate per-hop event totals over many walk traces, keyed by kind
    name as in {!Rofl_routing.Trace.counts}; every kind is present. *)

val mean_stretch_intra : intra_run -> pairs:int -> rng:Rofl_util.Prng.t -> float list
(** Stretch samples from {!gateway_sampler} gateways to [rng]-drawn identifiers. *)
