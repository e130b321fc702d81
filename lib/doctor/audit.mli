(** Continuous checkpoint audits over a running campaign.

    An audit attaches to the protocol's event engine through the
    {!Rofl_netsim.Engine.set_monitor} observer — {e not} through scheduled
    events, which would shift FIFO tie-breaking sequence numbers and change
    the simulation — and sweeps {!Checks.proto_checks} every [every_ms] of
    simulated time.  Audits are pure observers: attaching one to a campaign
    leaves every table byte-identical. *)

type config = {
  every_ms : float;        (** checkpoint cadence (simulated ms, > 0) *)
  stale_grace_ms : float;  (** grace for the stale-successor check *)
}

val config_for : Rofl_proto.Proto.config -> config
(** Derive a cadence and grace from a protocol configuration: checkpoints
    every stabilisation period, stale grace of eight worst-case repair
    chains (period + the full {!Rofl_proto.Proto.rpc_retries} probe retry
    budget each). *)

type summary = {
  checkpoints : int;                    (** checkpoint sweeps executed *)
  violations : Checks.violation list;   (** the first 64, in detection order *)
  total_violations : int;               (** including any past the first 64 *)
}

val ok : summary -> bool

val first : summary -> Checks.violation option

type t

val create : ?extra:(float -> Checks.violation list) -> config -> Rofl_proto.Proto.t -> t
(** [extra], when given, runs at every checkpoint after the proto sweep and
    its violations are recorded the same way — how campaigns attach
    layer-specific audits (e.g. {!Checks.services_checks} closed over a
    directory) without the auditor depending on every layer. *)

val install : t -> unit
(** Start observing: a checkpoint fires on the first event executed at or
    past each cadence boundary (multiple boundaries crossed by one quiet gap
    collapse into a single sweep of the unchanged state). *)

val detach : t -> unit

val summary : t -> summary
