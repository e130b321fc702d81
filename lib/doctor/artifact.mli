(** Runnable repro artifacts: seed + minimal event list + expected violation.

    A plain-text, line-based format (`rofl-doctor-repro v1`) that
    [rofl_sim doctor --replay FILE] re-executes:

    {v
    rofl-doctor-repro v1
    seed 42
    graph waxman 12 30 0x1.999...p-2 0x1.999...p-3
    param horizon_ms 0x1.f4p+12
    ...
    fingerprint stale-grace:1f2e3d4c
    event join 0x1.8p+5 0
    event stab-off 0x1.9p+9
    event crash 0x1.ap+9 0
    v}

    Timestamps are hex floats ([%h]), so replays reconstruct bit-identical
    event times.  The [graph] line is an opaque topology spec interpreted by
    the campaign-side replay glue, keeping this library free of topology
    generation; [param] lines carry campaign/protocol scalars the same
    way. *)

type fault =
  | Cross_splice of { at_ms : float }
      (** {!Rofl_proto.Proto.inject_cross_splice} at the given time *)
  | Stab_off of { at_ms : float }
      (** stop the stabilizer at the given time *)
  | Eclipse of { at_ms : float; victim : int; count : int; crash_at_ms : float }
      (** mine [count] self-certifying sybil identifiers into the ring arc
          owned by router [victim]'s label and join them all through one
          content-keyed attacker gateway; a negative [crash_at_ms] leaves
          them resident, otherwise they all crash at once then — the
          coordinated-failure half of an eclipse *)
  | Poison of { at_ms : float; fraction : float }
      (** flip a content-keyed [fraction] of routers to
          [Rofl_proto.Proto.Poison_succs] conduct *)
  | Forge of { at_ms : float; count : int }
      (** submit [count] joins whose credentials belong to a different
          identifier — the forged-claim workload the verification gate
          exists to reject *)

type event = Churn of Rofl_workload.Churn.event | Fault of fault

type t = {
  seed : int;
  graph : string;                   (** opaque topology spec tokens *)
  params : (string * string) list;  (** named scalars, in file order *)
  fingerprint : string;             (** expected {!Checks.fingerprint} *)
  events : event list;
}

val to_lines : t -> string list

val of_lines : string list -> (t, string) result

val write : path:string -> t -> unit

val read : path:string -> (t, string) result
