module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Campaign = Rofl_dynamics.Campaign
module Checks = Rofl_doctor.Checks
module Audit = Rofl_doctor.Audit
module Shrink = Rofl_doctor.Shrink
module Artifact = Rofl_doctor.Artifact

(* The ring doctor's lab: audited churn campaigns, fault-injection hunts
   with deterministic shrinking, and artifact replay.  Every campaign here
   is a pure function of (seed, profile, params, events), so grids fan over
   the domain pool with byte-identical tables at any --jobs setting and a
   written artifact replays bit-identically anywhere. *)

type scenario = {
  sc_seed : int;
  sc_profile : Isp.profile;
  sc_params : Campaign.params;
  sc_faults : Artifact.fault list;
}

let scenario_events sc =
  Campaign.churn_events ~seed:sc.sc_seed sc.sc_params
  @ List.map (fun f -> Artifact.Fault f) sc.sc_faults

(* ---- graph specs ------------------------------------------------------- *)

(* The artifact's graph line carries the full profile, not a name looked up
   in a registry, so a repro written against a custom profile still replays
   on a binary that has never heard of it. *)
let graph_spec (p : Isp.profile) =
  Printf.sprintf "isp %s %d %d %d" p.Isp.profile_name p.Isp.routers p.Isp.hosts
    p.Isp.pop_count

let profile_of_spec spec =
  match String.split_on_char ' ' (String.trim spec) with
  | [ "isp"; name; routers; hosts; pops ] ->
    (match (int_of_string_opt routers, int_of_string_opt hosts, int_of_string_opt pops) with
     | Some routers, Some hosts, Some pop_count ->
       Ok { Isp.profile_name = name; routers; hosts; pop_count }
     | _ -> Error (Printf.sprintf "malformed isp spec %S" spec))
  | _ -> Error (Printf.sprintf "unknown graph spec %S" spec)

(* The shards setting rides along (byte-identical results guaranteed), so
   [rofl_sim doctor --shards N] audits the sharded execution path and an
   artifact still replays identically at any setting. *)
let audited sc events =
  Campaign.run ~seed:sc.sc_seed
    ~audit:(Audit.config_for sc.sc_params.Campaign.proto_cfg)
    ~shards:(Common.shards ()) ~pool:(Common.pool ()) ~events
    (Campaign.network ~seed:sc.sc_seed sc.sc_profile) sc.sc_params

let summary_of (r : Campaign.report) =
  match r.Campaign.audit with
  | Some s -> s
  | None -> { Audit.checkpoints = 0; violations = []; total_violations = 0 }

let reproduces sc fingerprint events =
  let s = summary_of (audited sc events) in
  List.exists (fun v -> Checks.fingerprint v = fingerprint) s.Audit.violations

(* ---- audited campaign grid --------------------------------------------- *)

type grid = {
  tables : Table.t list;
  total_violations : int;
  failing : (scenario * Campaign.report) list; (* cells with violations *)
}

let audit_campaigns (scale : Common.scale) =
  let cells =
    List.concat_map
      (fun profile ->
        List.map
          (fun lt ->
            {
              sc_seed = scale.Common.seed;
              sc_profile = profile;
              sc_params =
                Churnlab.params_of scale ~alpha:1 ~lifetime_s:lt
                  ~period_ms:Proto.default_config.Proto.stabilize_period_ms;
              sc_faults = [];
            })
          scale.Common.churn_lifetimes_s)
      scale.Common.isps
  in
  let reports =
    Common.parallel_map (fun sc -> audited sc (scenario_events sc)) cells
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Ring doctor: checkpoint audits over the churn grid (%.0f s horizon, \
            %.0f arrivals/s, checkpoint every %.0f ms)"
           (scale.Common.churn_horizon_ms /. 1000.0)
           scale.Common.churn_arrival_per_s
           Proto.default_config.Proto.stabilize_period_ms)
      ~columns:
        [ "ISP"; "lifetime [s]"; "checkpoints"; "violations"; "verdict"; "first violation" ]
  in
  let failing = ref [] and total = ref 0 in
  List.iter2
    (fun sc r ->
      let s = summary_of r in
      total := !total + s.Audit.total_violations;
      if not (Audit.ok s) then failing := (sc, r) :: !failing;
      Table.add_row t
        [
          sc.sc_profile.Isp.profile_name;
          Printf.sprintf "%g" sc.sc_params.Campaign.mean_lifetime_s;
          string_of_int s.Audit.checkpoints;
          string_of_int s.Audit.total_violations;
          (if Audit.ok s then "ok" else "VIOLATION");
          (match Audit.first s with
           | None -> "-"
           | Some v -> Checks.to_string v);
        ])
    cells reports;
  { tables = [ t ]; total_violations = !total; failing = List.rev !failing }

(* ---- static layer audits ----------------------------------------------- *)

(* One-shot sweeps of the synchronous intra/inter networks through the same
   check set, so the doctor also covers the layers the experiment figures
   are built on (and the pointer-cache/index agreement check runs against a
   populated cache). *)
let static_audits (scale : Common.scale) =
  let profile = List.hd scale.Common.isps in
  let hosts = min scale.Common.intra_hosts 200 in
  let run = Common.build_intra ~seed:scale.Common.seed ~hosts profile in
  let intra_vs =
    Checks.intra_checks ~routability_samples:32 ~at_ms:0.0 run.Common.net
  in
  let inter =
    Common.build_inter ~seed:scale.Common.seed
      ~hosts:(min scale.Common.inter_hosts 300)
      ~strategy:Rofl_inter.Net.Single_homed scale.Common.inter_params
  in
  let inter_vs =
    Checks.inter_checks ~routability_samples:32 ~at_ms:0.0 inter.Common.net
  in
  let t =
    Table.create ~title:"Ring doctor: static layer audits"
      ~columns:[ "layer"; "violations"; "first violation" ]
  in
  let row layer vs =
    Table.add_row t
      [
        layer;
        string_of_int (List.length vs);
        (match vs with [] -> "-" | v :: _ -> Checks.to_string v);
      ]
  in
  row (Printf.sprintf "intra (%s, %d hosts)" profile.Isp.profile_name hosts) intra_vs;
  row "inter" inter_vs;
  (t, List.length intra_vs + List.length inter_vs)

(* ---- fault-injection hunts and shrinking ------------------------------- *)

type fault_kind = Stab_off_crash | Loopy_splice | Eclipse_inject | Poison_inject

let mini_profile =
  { Isp.profile_name = "doctor-mini"; routers = 24; hosts = 1_000; pop_count = 3 }

(* A 4 s campaign on the mini ISP, one arrival a second, no lookups. *)
let mini_params =
  {
    Campaign.default_params with
    Campaign.horizon_ms = 4_000.0;
    arrival_rate_per_s = 1.0;
    lookup_rate_per_s = 0.0;
  }

let inject_scenario ~seed kind =
  let sc sc_params fault =
    { sc_seed = seed; sc_profile = mini_profile; sc_params; sc_faults = [ fault ] }
  in
  let no_departures =
    { mini_params with Campaign.move_fraction = 0.0; crash_fraction = 0.0 }
  in
  match kind with
  | Stab_off_crash ->
    (* Kill the stabilizer early, then let churn crash members: every stale
       successor window stays open forever and blows through the grace. *)
    sc
      {
        mini_params with
        Campaign.horizon_ms = 6_000.0;
        arrival_rate_per_s = 2.0;
        mean_lifetime_s = 2.0;
        move_fraction = 0.0;
        crash_fraction = 1.0;
      }
      (Artifact.Stab_off { at_ms = 1_500.0 })
  | Loopy_splice ->
    (* Reintroduce the loopy-network bug (untwist repair off) and splice the
       ring across itself: inversion evidence in the successor lists is then
       permanent, exactly what the untwist repair would have consumed. *)
    sc
      {
        mini_params with
        Campaign.proto_cfg = { Proto.default_config with Proto.untwist = false };
      }
      (Artifact.Cross_splice { at_ms = 2_000.0 })
  | Eclipse_inject ->
    (* Declared-but-unenforced diversity quota: the sybils (mined genuine
       keypairs, so verification rightly admits them) concentrate router
       5's backup tail in the attacker's PoP.  No coordinated crash — the
       saturation must persist for checkpoint audits to catch. *)
    sc
      {
        no_departures with
        Campaign.proto_cfg =
          { Proto.default_config with Proto.succ_quota = 2; quota_enforce = false };
      }
      (Artifact.Eclipse { at_ms = 2_000.0; victim = 5; count = 5; crash_at_ms = -1.0 })
  | Poison_inject ->
    (* A third of the routers start prepending fabricated backups to their
       stabilisation replies; adopters' successor lists then reference
       identifiers that were never admitted — the poison-residency
       evidence.  (Join verification does not help here: adoption happens
       on the stabilisation path, which is why promotion is verified
       separately.) *)
    sc no_departures (Artifact.Poison { at_ms = 1_500.0; fraction = 0.3 })

type hunt =
  | Clean of Campaign.report
  | Caught of {
      fingerprint : string;
      first : Checks.violation;
      original_events : int;
      shrunk_events : int;
      artifact : Artifact.t;
      report : Campaign.report; (* of the original, unshrunk run *)
    }

let hunt_and_shrink sc =
  let events = scenario_events sc in
  let r = audited sc events in
  match Audit.first (summary_of r) with
  | None -> Clean r
  | Some first ->
    let fingerprint = Checks.fingerprint first in
    (* Parameter-level shrink first: a repro without its lookup workload is
       much faster to re-run and much easier to read.  Valid only if the
       violation survives, which the same oracle decides. *)
    let sc =
      if sc.sc_params.Campaign.lookup_rate_per_s > 0.0 then begin
        let quiet =
          { sc with sc_params = { sc.sc_params with Campaign.lookup_rate_per_s = 0.0 } }
        in
        if reproduces quiet fingerprint events then quiet else sc
      end
      else sc
    in
    let shrunk = Shrink.minimize ~reproduces:(reproduces sc fingerprint) events in
    let artifact =
      {
        Artifact.seed = sc.sc_seed;
        graph = graph_spec sc.sc_profile;
        params = Campaign.params_to_strings sc.sc_params;
        fingerprint;
        events = shrunk;
      }
    in
    Caught
      {
        fingerprint;
        first;
        original_events = List.length events;
        shrunk_events = List.length shrunk;
        artifact;
        report = r;
      }

(* ---- artifact replay ---------------------------------------------------- *)

type replay = {
  rp_report : Campaign.report;
  rp_reproduced : bool;       (* the expected fingerprint showed up again *)
  rp_violation : Checks.violation option; (* the matching violation, if any *)
}

let replay (a : Artifact.t) =
  let ( let* ) = Result.bind in
  let* profile = profile_of_spec a.Artifact.graph in
  let* params = Campaign.params_of_strings a.Artifact.params in
  let sc =
    { sc_seed = a.Artifact.seed; sc_profile = profile; sc_params = params; sc_faults = [] }
  in
  let r = audited sc a.Artifact.events in
  let s = summary_of r in
  let hit =
    List.find_opt
      (fun v -> Checks.fingerprint v = a.Artifact.fingerprint)
      s.Audit.violations
  in
  Ok { rp_report = r; rp_reproduced = hit <> None; rp_violation = hit }
