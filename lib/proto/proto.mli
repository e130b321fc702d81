(** Message-driven intradomain ROFL with full host dynamics: routers are
    actors that only exchange messages through the discrete-event engine,
    each hop priced by per-link latency, and act on their local tables and
    what arrives.  The synchronous simulation ({!Rofl_intra.Network}) is
    the cross-check: tests drive both to the same ring.

    This module builds the actors, dispatches their messages, takes hosts in
    and out (join, leave, move, crash) and runs the Chord-style stabiliser.
    Each mechanism lives in one module of [lib/proto]: {!Chase} (greedy
    forwarding, joins' and lookups' chase, lookup attempts), {!Probe}
    (successor probes, failover, promotion checks), {!Pcache} (the pointer
    cache's eviction and quota), {!Refresh} (its refresh sweep), {!Tune}
    (the size estimate and self-tuning), {!Oracle} (stale-successor
    instrumentation) and {!Owner} (the pure-read owner walks).  {!Types}
    holds the shared data, {!State} the constants and plumbing. *)

type t = Types.t

type config = Types.config = {
  stabilize_period_ms : float;
  join_timeout_ms : float;
  lookup_timeout_ms : float;
  untwist : bool;
  lookup_alpha : int;
  pcache_capacity : int;
  stabilize_auto : bool;
  verify_joins : bool;
  succ_quota : int;
  quota_enforce : bool;
}
(** Fields documented at {!Types.config}. *)

val default_config : config
(** 50 ms stabilisation, 400 ms join and 300 ms lookup timeouts; untwist
    repair on.  α=1, pointer cache off, static stabilisation — the exact
    pre-α engine.  Join/promotion verification on; no successor-list
    quota. *)

type stats = {
  messages : int;        (** total link traversals *)
  joins_completed : int;
  stabilize_rounds : int;
  joins_failed : int;    (** joins abandoned after every retry timed out *)
  leaves_completed : int;
  moves_completed : int;
  crashes : int;
  failovers : int;       (** successor-list promotions after probe timeouts *)
  rpc_timeouts : int;
  join_retries : int;
  lookup_retries : int;
  join_rejects : int;  (** join claims turned away by identifier verification *)
  promo_rejects : int; (** failover candidates that failed promotion verification *)
}

val create :
  rng:Rofl_util.Prng.t ->
  ?cfg:config ->
  ?shards:int ->
  ?pool:Rofl_util.Pool.t ->
  ?bootstrap_hosts:int ->
  ?lookup_hint:int ->
  ?groups:int array ->
  ?behaviours:Types.behaviour array ->
  Rofl_topology.Graph.t ->
  t
(** An actor per router; the default labels and [bootstrap_hosts] extra
    hosts (placed uniformly from [rng]) are spliced locally at time zero.

    [shards] partitions the routers into contiguous ranges, each run by its
    own engine under a {!Rofl_netsim.Shard} coordinator whose window is the
    cheapest partition-crossing link latency; with a [pool], windows run in
    parallel.  Runs are byte-identical at any shard count: every event is
    keyed by [(time, acting router, per-router seq)].  [lookup_hint]
    pre-sizes the lookup tables.  [groups] gives each router its diversity
    group (PoP), the key the quotas count by; [behaviours] its conduct
    (default: all {!Types.Honest}); each has one entry per router when
    given.  Raises [Invalid_argument] if [cfg.lookup_alpha < 1]. *)

val coordinator : t -> Types.message Rofl_netsim.Shard.t
(** The shard coordinator, exposed so campaign drivers can inject timed
    global workload events ({!Rofl_netsim.Shard.at_global}), attach the
    doctor's monitor, and read clock/queue/fingerprint instrumentation. *)

val shard_count : t -> int
(** Number of shards actually in use (at most the router count). *)

val shard_of_router : t -> int -> int
(** The shard owning a router — what a campaign needs to route per-shard
    result buffers. *)

val metrics : t -> Rofl_netsim.Metrics.t
(** The shards' counter registries, merged: control messages by category
    ([join], [stabilize], [repair], [lookup], [verify], [refresh]; counts
    equal link traversals) and protocol events (failovers, timeouts,
    retries, rejections, duplicate α work).  {!stats} reads it. *)

val config : t -> config

val join :
  t -> gateway:int -> ?cred:Rofl_crypto.Identity.keypair -> Rofl_idspace.Id.t -> unit
(** Schedule a host join at the current simulated time.  The join completes
    asynchronously; run the engine to let it finish.  Joins retry with
    backoff when no response arrives within the join timeout, and count as
    [joins_failed] after {!State.join_retries} retries.  Already-present (or
    already-joining) identifiers are ignored.

    With {!config.verify_joins} on, the gateway first runs one
    challenge/response round trip against the presented credential [cred]
    (default: the identifier's canonical
    {!Rofl_crypto.Identity.credential_for} — the honest path) and turns
    forged claims away, counting them as [join_rejects].  With verification
    off a forged claim is admitted but remembered as tainted, the ground
    truth of the doctor's forged-admission audit. *)

val leave : t -> Rofl_idspace.Id.t -> bool
(** Graceful departure: succ/pred state is handed to the neighbours by
    message and the resident vanishes immediately.  False when the
    identifier is not resident. *)

val crash : t -> Rofl_idspace.Id.t -> bool
(** Silent death: the resident vanishes without a word.  Neighbours find out
    when their stabilisation probes time out and fail over to successor-list
    backups. *)

val move : t -> new_gateway:int -> Rofl_idspace.Id.t -> bool
(** Graceful leave immediately followed by a re-join at [new_gateway]
    (mobility).  False when the identifier is not resident. *)

type lookup_outcome = Types.lookup_outcome = {
  target : Rofl_idspace.Id.t;
  issued_ms : float;
  completed_ms : float;
  ok : bool;      (** the exact target identifier was found alive *)
  attempts : int;
}

val lookup_async : t -> from:int -> Rofl_idspace.Id.t -> (lookup_outcome -> unit) -> unit
(** Message-driven lookup from a router ({!Chase}); the callback fires
    exactly once, in simulated time, when the lookup succeeds, exhausts its
    retries, or times out. *)

val lookups_outstanding : t -> int
(** Lookups issued whose callback has not fired yet. *)

val start_stabilizer : t -> unit
(** Schedule self-repeating stabilisation rounds every
    [stabilize_period_ms] on the engine — the mode churn campaigns run in.
    In a round every resident probes its successor (skipping those with a
    probe already in flight) and expires silent predecessors; in auto mode
    the round first re-tunes ({!Tune}) and a resident probes only when due.
    With the stabilizer on the engine never drains: drive it with {!run_for}
    and poll {!ring_converged}. *)

val stop_stabilizer : t -> unit

val run_for : t -> float -> unit
(** Advance simulated time by the given budget (ms), processing messages and
    timers.

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

val run_until_quiescent : t -> max_ms:float -> float
(** Without the stabilizer: run stabilisation rounds until nothing is in
    flight and the ring has converged, or the budget runs out.  Returns the
    simulated time consumed.

    Exported for tests: the owner goldens and test_proto converge rings
    through it. *)

val stats : t -> stats
(** A read of {!metrics} ([messages] is its total), plus the stabilisation
    rounds and completed leaves, moves and crashes. *)

val members : t -> Rofl_idspace.Id.t list
(** Every identifier resident somewhere, sorted. *)

val is_member : t -> Rofl_idspace.Id.t -> bool

val successor_of : t -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t option
(** The first successor pointer currently held for a resident identifier.

    Exported for tests: test_proto projects async rings to compare them with
    the static engine. *)

val ring_converged : t -> bool
(** Every resident identifier's successor pointer equals the true ring
    successor of the current membership (single-component topologies). *)

val lookup_owner_batch :
  t -> from:int array -> targets:Rofl_idspace.Id.t array -> Rofl_idspace.Id.t option array
(** {!Owner.lookup_owner} from [from.(i)] toward [targets.(i)] for each [i].
    Raises [Invalid_argument] if the arrays differ in length.

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

(** {2 Audit surface}

    Read-only views for the ring doctor ({!Rofl_doctor}).  Consulting them
    schedules nothing, draws no randomness and mutates no protocol state, so
    checkpoint audits cannot perturb a deterministic campaign. *)

type resident_view = {
  v_id : Rofl_idspace.Id.t;
  v_router : int;
  v_succ : (Rofl_idspace.Id.t * int) option;
  v_succ_list : (Rofl_idspace.Id.t * int) list;
  v_pred : (Rofl_idspace.Id.t * int) option;
}

val residents_view : t -> resident_view list
(** A snapshot of every resident's pointer state, sorted by identifier. *)

val set_behaviour : t -> int -> Types.behaviour -> unit
(** Flip a router's conduct policy, from the global context only (between
    {!run_for} windows or in {!Rofl_netsim.Shard.at_global} events): shards
    only read behaviours, so campaigns stay identical at any shard count. *)

val tainted_count : t -> int

val locate : t -> Rofl_idspace.Id.t -> int option
(** The hosting router according to the residency oracle. *)

val inject_cross_splice : t -> (Rofl_idspace.Id.t * Rofl_idspace.Id.t) option
(** Fault injection for the doctor's test harness: swap the successor
    pointers of the members at sorted ring positions 0 and n/2, a "loopy"
    whirl pairwise stabilisation confirms rather than repairs ([None] with
    fewer than 4 members).  {!config.untwist} heals it; without it the
    inversion evidence persists for the audits to catch. *)
