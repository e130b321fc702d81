(** Message-driven intradomain ROFL with full host dynamics.

    The main simulation ({!Rofl_intra.Network}) executes protocol steps
    synchronously and charges the messages they would send.  This module is
    the cross-check and the churn lab's substrate: a fully asynchronous
    implementation where routers are actors that ONLY exchange messages
    through the discrete-event engine — every join request, join reply,
    successor notification, stabilisation probe, leave handoff and lookup is
    a scheduled message that travels the physical topology hop by hop with
    per-link latency.  Protocol decisions consult nothing global; each
    router acts on its local table and what arrives (a residency oracle
    exists, but only for instrumentation and membership queries).

    Ring maintenance is Chord-style: a join locates its predecessor by
    greedy per-hop forwarding, splices, and periodic stabilisation
    ([Get_pred] / [Notify]) repairs any races between concurrent joins.
    Beyond joins, hosts can {!leave} gracefully (succ/pred state handed to
    the neighbours), {!move} (leave + rejoin elsewhere), or {!crash}
    silently; crashes are detected by stabilisation probe timeouts and
    healed from the Chord-style successor list ({!succ_list_len} entries
    per member).  Join and lookup RPCs carry timeouts and retry
    with exponential backoff, so in-flight operations survive a dying next
    hop.  The test suite drives identical workloads through this engine and
    the synchronous one and requires both to converge to the same ring. *)

type t

type behaviour =
  | Honest
  | Drop_lookups  (** byzantine silence: swallow every lookup it handles *)
  | Misroute      (** answer lookups with its own best resident as "owner" *)
  | Poison_succs  (** prepend fabricated backups to stabilisation replies,
                      and vouch for those ghosts when they are probed *)
(** Per-router conduct policy for the attack lab.  Honest routers run the
    protocol; the rest model the paper's threat surface.  Behaviours only
    change what a router {e says} in its own execution context, so
    campaigns stay byte-identical at any shard count. *)

(** {2 Fixed protocol constants}

    Timing and redundancy values no experiment varies.  They are part of
    the protocol, not of {!config}. *)

val succ_list_len : int
(** 4: successor-list redundancy, the successor plus 3 backups (the
    static target; {!config.stabilize_auto} may grow the tail). *)

val rpc_timeout_ms : float
(** 100 ms: base timeout of a stabilisation probe and of a promotion
    challenge. *)

val rpc_retries : int
(** 2: probe retries before the successor is declared dead. *)

val rpc_backoff : float
(** 2: timeout multiplier per retry of a probe, join or lookup
    (exponential backoff). *)

val pred_timeout_ms : float
(** 600 ms: silence after which a predecessor is presumed dead. *)

val join_retries : int
(** 4: join retries before the join counts as [joins_failed]. *)

val lookup_retries : int
(** 3: lookup retries before the lookup fails. *)

val stuck_wait_ms : float
(** 5 ms: wait before re-probing a committed candidate that is absent
    where it should reside (it may be mid-join). *)

val stuck_wait_limit : int
(** 3: such waits before the candidate is presumed dead. *)

val pcache_refresh_ttl_ms : float
(** 400 ms: pointer-cache entry age beyond which the refresh manager
    re-validates it. *)

val pcache_refresh_budget : int
(** 4: refresh probes per router per refresh sweep. *)

type config = {
  stabilize_period_ms : float; (** period of {!start_stabilizer}'s rounds *)
  join_timeout_ms : float;     (** base timeout of a join attempt *)
  lookup_timeout_ms : float;   (** base timeout of a lookup attempt *)
  untwist : bool;
  (** enable the succ-list-inversion "untwist" repair for loopy rings.  On by
      default; turning it off deliberately reintroduces Chord's loopy-network
      problem, which the ring doctor's audits are built to catch. *)
  lookup_alpha : int;
  (** concurrent greedy-walk branches per {!lookup_async} attempt: branch 0
      is the classic origin walk, extra branches start at diversified
      routers (pointer-cache best match, successor-list backups,
      predecessor routers) and the first success wins — losers are
      cancelled at the origin and their hops charged to the duplicate-work
      ledger.  1 (the default) is byte-identical to the pre-α engine;
      {!create} rejects values below 1. *)
  pcache_capacity : int;
  (** per-router pointer-cache entries (owner pointers learned from lookup
      responses), 0 (the default) disables the cache entirely. *)
  stabilize_auto : bool;
  (** derive the per-resident probe period and successor-list length from
      the protocol's own network-size estimate ({!estimate_n}) and observed
      churn rate instead of [stabilize_period_ms] and {!succ_list_len};
      false (the default) keeps the static behaviour byte-identical. *)
  verify_joins : bool;
  (** challenge/response identifier verification at the join gateway and on
      successor-list failover promotion (paper §2.1 self-certifying labels).
      On by default; the off position exists for the attack lab's
      defense-off cells and for measuring verification cost. *)
  succ_quota : int;
  (** declared per-PoP share of {e admitted} (joined) entries in a
      successor-list backup tail (and of pointer-cache admissions).
      Infrastructure entries — a router's own label hosted at itself — are
      exempt: their ring placement is the operator's topology, not an
      admission an attacker can mint.  0 = no quota rule.  The rule is what
      the doctor's eclipse-saturation check audits; whether the protocol
      also {e enforces} it is [quota_enforce]. *)
  quota_enforce : bool;
  (** enforce [succ_quota] at every successor-list adoption and
      pointer-cache admission (the Kademlia IP-group-quota defense, keyed
      by PoP).  Meaningless unless [succ_quota > 0] and the instance was
      created with router [groups]. *)
}

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
  ?behaviours:behaviour array ->
  Rofl_topology.Graph.t ->
  t
(** An actor per router; default virtual nodes are spliced locally at time
    zero (the bootstrap flood is not re-simulated here), along with
    [bootstrap_hosts] extra hosts placed uniformly at random from [rng].

    [shards] partitions the routers into contiguous ID ranges, each run by
    its own event engine under a {!Rofl_netsim.Shard} coordinator with a
    conservative time window equal to the cheapest partition-crossing link
    latency; with a [pool], shard windows execute in parallel.  Runs are
    byte-identical at any shard count: every event is keyed by
    [(time, acting router, per-router seq)], and every cross-shard message
    rides a physical path whose latency is at least the window.
    [lookup_hint] pre-sizes the per-shard lookup tables for the expected
    number of concurrently open lookups (they grow regardless).

    [groups] assigns each router to a diversity group (PoP index from
    {!Rofl_topology.Isp.pop_of_router}) — the key the successor-list and
    pointer-cache quotas count by.  [behaviours] assigns each router its
    conduct policy (default: all {!Honest}); both must have one entry per
    router when given.  Raises [Invalid_argument] if [cfg.lookup_alpha < 1]. *)

val router_label : int -> Rofl_idspace.Id.t
(** The deterministic default identifier of router [i]. *)

val coordinator : t -> Rofl_netsim.Shard.t
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
    [joins_failed] after {!join_retries} retries.  Already-present (or
    already-joining) identifiers are ignored.

    With {!config.verify_joins} on, the gateway first runs one
    challenge/response round trip against the presented credential [cred]
    (default: the identifier's canonical
    {!Rofl_crypto.Identity.credential_for} — the honest path) and turns
    forged claims away, counting them as [join_rejects].  With verification
    off a forged claim is admitted but remembered as tainted
    ({!is_tainted}) — the ground truth the doctor's forged-admission audit
    reads. *)

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

type lookup_outcome = {
  target : Rofl_idspace.Id.t;
  issued_ms : float;
  completed_ms : float;
  ok : bool;      (** the exact target identifier was found alive *)
  attempts : int;
}

val lookup_async : t -> from:int -> Rofl_idspace.Id.t -> (lookup_outcome -> unit) -> unit
(** Message-driven lookup from a router: greedy per-hop forwarding over the
    current pointer state, with origin-side timeout/retry-with-backoff.  A
    response naming a different owner (stale pointers) is retried after one
    stabilisation period; the callback fires exactly once, in simulated
    time, when the lookup succeeds, exhausts its retries, or times out. *)

val lookups_outstanding : t -> int
(** Lookups issued whose callback has not fired yet. *)

val start_stabilizer : t -> unit
(** Schedule self-repeating stabilisation rounds every
    [stabilize_period_ms] on the engine — the mode churn campaigns run in.
    In a round every resident probes its successor (skipping those with a
    probe already in flight) and expires silent predecessors.  In auto mode
    ({!config.stabilize_auto}) the round first re-tunes the probe multiplier
    and successor-list target from {!estimate_n} and the EWMA churn rate,
    and each resident only probes when its due time has arrived.
    (With the stabilizer on, the engine never drains; drive it with
    {!run_for} and poll {!ring_converged}.) *)

val stop_stabilizer : t -> unit

val estimate_n : t -> float
(** The protocol's own network-size estimate: the median over residents of
    L·2^128/span(succ-list) — ring-neighbourhood density, the same signal a
    production DHT derives N from.  0 with no members.  Per-node samples
    are Erlang-noisy; only the median is load-bearing. *)

val auto_state : t -> (float * float * int) option
(** [(N̂, period multiplier, successor-list backup target)] when auto-tuned
    stabilisation is on, [None] otherwise. *)

val pcache_entries : t -> int
(** Total pointer-cache entries across routers (0 when disabled). *)

val pcache_capacity_ok : t -> bool
(** Structural invariant for the doctor: no per-router cache exceeds its
    configured capacity. *)

val pcache_quota_ok : t -> bool
(** Structural invariant for the doctor: no per-router cache holds more
    entries of one diversity group than its admission quota allows
    (vacuously true with quotas off). *)

val pcache_iter :
  t -> (router:int -> Rofl_idspace.Id.t -> int -> unit) -> unit
(** Iterate every cached owner pointer: [f ~router id hosting_router] for
    each entry of each router's pointer cache — the doctor's
    poison-residency sweep.  Pure read. *)

val run_for : t -> float -> unit
(** Advance simulated time by the given budget (ms), processing messages and
    timers.

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

val run_until_quiescent : t -> max_ms:float -> float
(** Externally-driven convergence loop (no self-repeating stabilizer): run
    until no protocol message or timer is in flight and a full stabilisation
    round changes nothing, or until the time budget runs out.  Returns the
    simulated time consumed.

    Exported for tests: the owner goldens and test_proto converge rings
    through it. *)

val stats : t -> stats
(** A read of {!metrics} ([messages] is its total), plus the stabilisation
    rounds and completed leaves, moves and crashes. *)

val members : t -> Rofl_idspace.Id.t list
(** Every identifier resident somewhere, sorted. *)

val is_member : t -> Rofl_idspace.Id.t -> bool

val ever_member : t -> Rofl_idspace.Id.t -> bool
(** Was this identifier ever admitted (bootstrap or join) — even if it has
    since left or crashed?  Fabricated successor-list entries were never
    admitted, so [ever_member id = false] for a pointer at large is
    poisoning evidence for the doctor. *)

val successor_of : t -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t option
(** The first successor pointer currently held for a resident identifier.

    Exported for tests: test_proto projects async rings to compare them with
    the static engine. *)

val ring_converged : t -> bool
(** Every resident identifier's successor pointer equals the true ring
    successor of the current membership (single-component topologies). *)

val stale_windows : t -> float list
(** Completed stale-successor windows (ms), in completion order: for each
    holder whose successor pointer named a departed identifier, the time
    from the departure until the pointer was repointed at a live one. *)

val stale_open : t -> int
(** Holders whose successor pointer is stale right now. *)

val lookup_owner : t -> from:int -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t option
(** Synchronously walk the current pointer state greedily from a router —
    the data-plane view of this actor network's tables.  Each hop is the
    owner step {!walk_owner} takes too; only the [Some] result allocates. *)

val lookup_owner_batch :
  t ->
  from:int array ->
  targets:Rofl_idspace.Id.t array ->
  Rofl_idspace.Id.t option array
(** {!lookup_owner} mapped over a batch: lookup [i] starts at [from.(i)]
    toward [targets.(i)].  Raises [Invalid_argument] if the arrays differ
    in length.

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

type owner_walk = private {
  w_alpha : int;                (** branches at most *)
  mutable w_owner : Rofl_idspace.Id.t;  (** the verdict, when [w_winner >= 0] *)
  mutable w_winner : int;       (** branch that reached it, -1 when unresolved *)
  mutable w_branches : int;     (** branches seeded, 1 ≤ [w_branches] ≤ [w_alpha] *)
  mutable w_cancelled : int;    (** live siblings the win cancelled *)
  w_router : int array;         (** per branch: its router; the winner's hosts the owner *)
  w_hops : int array;           (** per branch: ring hops taken *)
  w_link_hops : int array;      (** per branch: link traversals of those hops *)
  w_latency_ms : float array;   (** per branch: summed shortest-path latency *)
  w_best : Rofl_idspace.Id.t array;  (** per branch: the walk's horizon (scratch) *)
  w_best_d : int array;         (** per branch: its key distance, -1 when cleared (scratch) *)
  w_live : Bytes.t;             (** scratch *)
}
(** The registers of the α-branch owner walk, made once by {!owner_walk} and
    reused for every lookup.  Branch arrays are meaningful below
    [w_branches]. *)

val owner_walk : alpha:int -> owner_walk
(** Registers for lookups of up to [alpha] branches.  Raises
    [Invalid_argument] if [alpha < 1]. *)

val walk_owner : t -> owner_walk -> from:int -> target:Rofl_idspace.Id.t -> unit
(** Walk one lookup by up to [w_alpha] greedy branches, overwriting the
    registers: branch 0 from [from], the rest from diversified starts
    (pointer-cache best match toward the target, then successor-list backup
    routers, then predecessor routers, deduplicated).  Each pass steps every
    live branch once, in branch order; the first branch to reach a verdict
    wins and its live siblings are cancelled, so ties resolve to the lowest
    branch index.  When every branch dies the lookup is unresolved.  Every
    ring hop is priced by the link-state shortest path between its two
    routers; the pricing only warms memoised trees, so the walk stays
    pure-read, and on warm trees it allocates nothing.  At [alpha = 1] its
    verdict is {!lookup_owner}'s. *)

val latency_between : t -> int -> int -> float
(** Link-state shortest-path latency between two routers (0 when equal or
    partitioned) — the response leg a resolver charges for the trip back
    from the owner. *)

val link_hops_between : t -> int -> int -> int
(** Link traversals of {!latency_between}'s path (0 when equal or
    partitioned). *)

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

val set_behaviour : t -> int -> behaviour -> unit
(** Flip a router's conduct policy.  Call only from the global context
    (between {!run_for} windows or inside
    {!Rofl_netsim.Shard.at_global} events) — shards read behaviours during
    their windows but never write them, which is what keeps adversarial
    campaigns byte-identical at any shard count. *)

val router_groups : t -> int array
(** The diversity-group array the instance was created with ([[||]] when
    ungrouped).  Not a copy; treat as read-only. *)

val is_tainted : t -> Rofl_idspace.Id.t -> bool
(** Admitted under a failed identifier verification (only possible with
    {!config.verify_joins} off) — the doctor's forged-admission ground
    truth.  Tainted residents cannot answer promotion challenges. *)

val tainted_count : t -> int

val locate : t -> Rofl_idspace.Id.t -> int option
(** The hosting router according to the residency oracle. *)

val stale_open_since : t -> (Rofl_idspace.Id.t * float) list
(** Holders whose successor pointer is stale right now, with the simulated
    time their window opened; sorted by identifier. *)

val inject_cross_splice : t -> (Rofl_idspace.Id.t * Rofl_idspace.Id.t) option
(** Fault injection for the doctor's test harness: deterministically swap the
    successor pointers of the members at sorted ring positions 0 and n/2,
    creating a "loopy" whirl that pairwise stabilisation alone confirms
    rather than repairs.  Returns the swapped pair, or [None] with fewer
    than 4 members.  With {!config.untwist} enabled the ring heals at the
    next stabilisation round; with it disabled the inversion evidence
    persists for checkpoint audits to catch. *)
