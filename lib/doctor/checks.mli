(** Point-in-time well-formedness checks with stable violation fingerprints.

    Each check inspects live simulation state and returns the list of
    violations it found; running a check schedules nothing, draws no
    randomness (except where a sampling count is explicitly requested) and
    mutates no protocol state, so the {!Audit} layer can call them from
    engine checkpoints without perturbing a deterministic campaign. *)

type violation = {
  check : string;   (** check kind, e.g. ["loopy-evidence"] *)
  subject : string; (** stable subject, e.g. the holder's short identifier *)
  detail : string;  (** human-readable specifics (not part of the fingerprint) *)
  at_ms : float;    (** simulated time of the checkpoint that caught it *)
}

val fingerprint : violation -> string
(** [check ^ ":" ^ subject] — the stable key the shrinker matches on.  The
    detail and timestamp vary as events are dropped; the kind of breakage
    and who it happened to must not. *)

val to_string : violation -> string

val proto_checks :
  stale_grace_ms:float -> at_ms:float -> Rofl_proto.Proto.t -> violation list
(** Checkpoint sweep of the async protocol state: residency-oracle/resident
    agreement (["oracle-agreement"], ["duplicate-resident"]), successor-list
    hygiene (["succ-list-self"], ["succ-list-order"], ["succ-list-dup"]),
    loopy-ring inversion evidence (["loopy-evidence"]: a backup strictly
    closer clockwise than the successor), pointer-cache capacity
    (["pcache-capacity"]), network-size-estimate sanity (["nhat-drift"]:
    on a converged ring of ≥ 64 members the median estimate must land
    within factor 4 of the membership — only the median, per-node samples
    are Erlang-noisy), and stale successor windows open past
    [stale_grace_ms] (["stale-grace"]).

    Attack-detection invariants ride the same sweep, auditing the ring's
    {e declared} policy even when enforcement is off:
    ["eclipse-saturation"] (a backup tail holding more {e admitted} entries
    of one diversity group than the declared [succ_quota] — the structural
    signature of a sybil eclipse; infrastructure entries, a router's own
    label hosted at itself, are exempt because small rings legitimately run
    same-PoP label streaks), ["poison-residency"] (a successor,
    backup, predecessor or pointer-cache entry naming an identifier that
    was never admitted to the ring — fabricated by a poisoning router),
    ["forged-admission"] (a resident admitted although its join claim
    failed identity verification — only possible with [verify_joins] off)
    and ["pcache-quota"] (a pointer cache holding more entries of one
    group than its admission quota when enforcement is on). *)

val intra_checks :
  ?routability_samples:int -> at_ms:float -> Rofl_intra.Network.t -> violation list
(** The existing {!Rofl_intra.Invariant} sweep (["intra-invariant"]), optional
    routability sampling (["intra-routability"], surfacing the inconclusive
    case as a violation), plus a pointer-cache agreement audit of every
    router (["pointer-cache-agreement"]: LRU and ring index agree).
    Routability sampling draws from the network's own RNG. *)

val inter_checks :
  ?routability_samples:int -> at_ms:float -> Rofl_inter.Net.t -> violation list
(** The existing {!Rofl_inter.Interinvariant} sweep (["inter-invariant"]) and
    optional routability sampling (["inter-routability"]). *)

val ring_owner :
  Rofl_idspace.Id.t array -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t option
(** [ring_owner members id] is the ring owner of [id] under the data
    plane's settle rule: the member closest clockwise {e to} [id] without
    passing it (its predecessor), i.e. the greatest member [<= id] in
    unsigned order, wrapping to the largest member when [id] precedes them
    all; [None] for an empty membership.  [members] must be sorted.
    O(log n) per query. *)

val services_checks : at_ms:float -> Rofl_services.Directory.t -> violation list
(** Checkpoint sweep of the service-discovery layer: no record resident
    grace-past its TTL (["svc-expiry"]; the grace is two republish
    periods — a full sweep cadence plus slack), every active intent's
    current placement hosted by the ring owner of its service identifier
    whenever the ring is converged (["svc-residency"]; decaying copies at
    previous owners are exempt), and no resolver cache that served an
    answer decayed past its stale-grace window (["svc-stale-serve"] — the
    counter only moves under the serve-stale fault knob or a freshness
    bug). *)
