(** The ring doctor's lab: audited churn-campaign grids, fault-injection
    hunts with deterministic shrinking, and repro-artifact replay.

    The doctor runs the substrate's invariant checks ({!Rofl_doctor.Checks})
    at stabilisation-period checkpoints inside live campaigns instead of
    only at trace drain.  When a checkpoint catches a violation, the hunt
    captures the event window and shrinks it — same seed, same parameters,
    events dropped one by one while the violation's fingerprint still
    reproduces — down to a runnable artifact that
    [rofl_sim doctor --replay FILE] re-executes deterministically. *)

type scenario = {
  sc_seed : int;
  sc_profile : Rofl_topology.Isp.profile;
  sc_params : Rofl_dynamics.Campaign.params;
  sc_faults : Rofl_doctor.Artifact.fault list;  (** injected on top of churn *)
}

val scenario_events : scenario -> Rofl_doctor.Artifact.event list
(** The scenario's full event list: its churn trace followed by its faults.

    Kept as a reference: the event list test_doctor's pure-observer
    comparison replays. *)

val graph_spec : Rofl_topology.Isp.profile -> string
(** Artifact graph line ([isp name routers hosts pops]) — self-describing,
    no profile registry needed at replay time.

    Exported for tests: test_doctor round-trips an artifact's graph line. *)

val profile_of_spec : string -> (Rofl_topology.Isp.profile, string) result
(** Exported for tests: test_doctor round-trips an artifact's graph line. *)

val audited_report :
  scenario -> Rofl_doctor.Artifact.event list -> Rofl_dynamics.Campaign.report
(** Run the scenario's campaign over an explicit event list with a
    checkpoint auditor attached (cadence/grace from
    {!Rofl_doctor.Audit.config_for}); topology derivation matches
    {!Rofl_dynamics.Campaign.run}.

    Kept as a reference: test_doctor compares an audited campaign against
    the plain one (pure observer). *)

type grid = {
  tables : Rofl_util.Table.t list;
  total_violations : int;
  failing : (scenario * Rofl_dynamics.Campaign.report) list;
}

val audit_campaigns : Common.scale -> grid
(** Audit every (ISP x lifetime) churn cell of the scale, fanned over the
    domain pool — byte-identical tables at any jobs setting. *)

val static_audits : Common.scale -> Rofl_util.Table.t * int
(** One-shot check sweeps of freshly built synchronous intra/inter networks
    (including per-router pointer-cache/index agreement); returns the table
    and the violation count. *)

type fault_kind =
  | Stab_off_crash  (** stabilizer stopped mid-campaign, then crashes *)
  | Loopy_splice    (** untwist repair off + ring spliced across itself *)
  | Eclipse_inject
      (** mined sybils saturate a victim's backup tail from one PoP under a
          declared-but-unenforced quota (caught by [eclipse-saturation]) *)
  | Poison_inject
      (** a router fraction fabricates stabilisation backups (caught by
          [poison-residency]) *)

val inject_scenario : seed:int -> fault_kind -> scenario
(** A small, fast scenario whose injected fault the audits must catch —
    the doctor's self-test. *)

type hunt =
  | Clean of Rofl_dynamics.Campaign.report
  | Caught of {
      fingerprint : string;
      first : Rofl_doctor.Checks.violation;
      original_events : int;
      shrunk_events : int;
      artifact : Rofl_doctor.Artifact.t;
      report : Rofl_dynamics.Campaign.report;
          (** of the original, unshrunk run *)
    }

val hunt_and_shrink : scenario -> hunt
(** Run audited; on the first violation, fix its fingerprint, try dropping
    the lookup workload, then {!Rofl_doctor.Shrink.minimize} the event list
    under the replay oracle and package the result as an artifact. *)

type replay = {
  rp_report : Rofl_dynamics.Campaign.report;
  rp_reproduced : bool;
  rp_violation : Rofl_doctor.Checks.violation option;
}

val replay : Rofl_doctor.Artifact.t -> (replay, string) result
(** Re-execute an artifact (rebuild the topology from its graph spec,
    rebuild params, rerun the event list audited) and report whether the
    expected fingerprint showed up again. *)
