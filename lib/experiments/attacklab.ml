module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Campaign = Rofl_dynamics.Campaign
module Artifact = Rofl_doctor.Artifact

(* Adversarial campaign grid: three attack families (eclipse, poison, forge)
   each crossed with its defense switch and the scale's ISPs.  Every cell is
   an independent campaign — own engine, own topology, own content-keyed
   attacker streams — so the grid fans over the domain pool and the tables
   are byte-identical at any --jobs/--shards setting (the fingerprint column
   makes a discrepancy visible in place).

   Defense-off cells keep the policy *declared* (succ_quota stays set) while
   flipping only the enforcement/verification switch, so the same doctor
   invariants that drive the --inject self-tests would flag these rings; the
   grid itself measures the service-level consequences instead. *)

(* Every attack cell keeps the victim router index fixed: comparisons across
   the defense axis must differ only in the defense switch. *)
let eclipse_victim = 5

let verify_msgs (r : Campaign.report) =
  match List.assoc_opt "verify" r.Campaign.ctrl_msgs with Some n -> n | None -> 0

let fingerprint_cell (r : Campaign.report) =
  Printf.sprintf "%016Lx" (Int64.of_int r.Campaign.event_fingerprint)

let pct x = if x < 0.0 then "-" else Printf.sprintf "%.0f" (100.0 *. x)

(* ---- eclipse: mined sybils vs the diversity quota ----------------------- *)

(* The sybils mine identifiers into the arc the victim router's label owns
   and join them all through one attacker gateway, then crash at once.  The
   quota cannot keep a mined identifier from *owning* arc targets — the
   identifiers are genuinely self-certifying, so pre-crash capture is the
   attack's entitlement — it keeps the victim's backup tail from being
   monopolised by one PoP, which is what decides how the ring survives the
   coordinated crash. *)
let eclipse_params (scale : Common.scale) ~enforce =
  {
    Campaign.default_params with
    Campaign.horizon_ms = scale.Common.attack_horizon_ms;
    arrival_rate_per_s = 0.5;
    mean_lifetime_s = 60.0;
    move_fraction = 0.0;
    crash_fraction = 0.0;
    lookup_rate_per_s = scale.Common.churn_lookup_per_s;
    proto_cfg =
      { Proto.default_config with Proto.succ_quota = 2; quota_enforce = enforce };
  }

let eclipse_fault ~horizon_ms ~count =
  Artifact.Eclipse
    {
      at_ms = 0.35 *. horizon_ms;
      victim = eclipse_victim;
      count;
      crash_at_ms = 0.7 *. horizon_ms;
    }

let eclipse_columns =
  [
    "sybils";
    "grind";
    "capture [%]";
    "repair [%]";
    "ok [%]";
    "p95 [ms]";
    "failovers";
    "reconv [ms]";
    "converged?";
    "ctrl [msg/s]";
    "fingerprint";
  ]

let eclipse_cells (r : Campaign.report) =
  [
    string_of_int r.Campaign.sybils;
    string_of_int r.Campaign.grind_draws;
    pct r.Campaign.victim_capture;
    pct r.Campaign.victim_repair;
    Printf.sprintf "%.2f" (100.0 *. r.Campaign.success_rate);
    Printf.sprintf "%.1f" r.Campaign.lat_p95_ms;
    string_of_int r.Campaign.failovers;
    (if Float.is_nan r.Campaign.reconverge_ms then "-"
     else Printf.sprintf "%.1f" r.Campaign.reconverge_ms);
    (if r.Campaign.reconverged then "yes" else "NO");
    Printf.sprintf "%.0f"
      (float_of_int r.Campaign.total_msgs /. (r.Campaign.sim_end_ms /. 1000.0));
    fingerprint_cell r;
  ]

(* ---- poison: fabricating routers vs promotion verification -------------- *)

(* Poison_succs routers answer stabilisation with fabricated backup entries;
   the fabrications ride the normal adoption path into successor lists.  The
   damage lands at failover: promoting a fabricated identifier makes a
   black-hole successor.  Promotion verification challenges the candidate
   first — a fabrication cannot answer — so the defense axis here is
   [verify_joins], and churn runs at the scale's highest rate with a
   crash-heavy departure mix (a promotion attack is only worth measuring in
   the environment that forces promotions). *)
let poison_params (scale : Common.scale) ~verify =
  {
    Campaign.default_params with
    Campaign.horizon_ms = scale.Common.attack_horizon_ms;
    arrival_rate_per_s = scale.Common.churn_arrival_per_s;
    mean_lifetime_s =
      List.fold_left Float.min Float.infinity scale.Common.churn_lifetimes_s;
    move_fraction = 0.1;
    crash_fraction = 0.5;
    lookup_rate_per_s = scale.Common.churn_lookup_per_s;
    proto_cfg = { Proto.default_config with Proto.verify_joins = verify };
  }

let poison_fault ~horizon_ms ~fraction =
  Artifact.Poison { at_ms = 0.15 *. horizon_ms; fraction }

let poison_columns =
  [
    "ok [%]";
    "p95 [ms]";
    "failovers";
    "promo rejects";
    "stale p95 [ms]";
    "unrepaired";
    "reconv [ms]";
    "converged?";
    "ctrl [msg/s]";
    "fingerprint";
  ]

let poison_cells (r : Campaign.report) =
  [
    Printf.sprintf "%.2f" (100.0 *. r.Campaign.success_rate);
    Printf.sprintf "%.1f" r.Campaign.lat_p95_ms;
    string_of_int r.Campaign.failovers;
    string_of_int r.Campaign.promo_rejects;
    Printf.sprintf "%.1f" r.Campaign.stale_p95_ms;
    string_of_int r.Campaign.stale_unrepaired;
    (if Float.is_nan r.Campaign.reconverge_ms then "-"
     else Printf.sprintf "%.1f" r.Campaign.reconverge_ms);
    (if r.Campaign.reconverged then "yes" else "NO");
    Printf.sprintf "%.0f"
      (float_of_int r.Campaign.total_msgs /. (r.Campaign.sim_end_ms /. 1000.0));
    fingerprint_cell r;
  ]

(* ---- forge: wrong-credential joins vs the verification gate ------------- *)

(* Forged joins present a credential that belongs to a different identifier
   — exactly what the challenge/response gate exists to turn away.  With
   verification off they are admitted and counted as tainted residents (the
   doctor's forged-admission evidence); with it on, every one bounces at
   the gateway.  The verify column is the defense's total price in control
   messages — two per *attempted* admission. *)
let forge_params (scale : Common.scale) ~verify =
  {
    Campaign.default_params with
    Campaign.horizon_ms = scale.Common.attack_horizon_ms;
    arrival_rate_per_s = 1.0;
    mean_lifetime_s = 60.0;
    move_fraction = 0.0;
    crash_fraction = 0.0;
    lookup_rate_per_s = scale.Common.churn_lookup_per_s /. 2.0;
    proto_cfg = { Proto.default_config with Proto.verify_joins = verify };
  }

let forge_fault ~horizon_ms ~count = Artifact.Forge { at_ms = 0.3 *. horizon_ms; count }

let forge_columns =
  [
    "joins";
    "rejected";
    "tainted";
    "ok [%]";
    "verify [msgs]";
    "ctrl [msg/s]";
    "fingerprint";
  ]

let forge_cells (r : Campaign.report) =
  [
    string_of_int r.Campaign.joins;
    string_of_int r.Campaign.join_rejects;
    string_of_int r.Campaign.tainted;
    Printf.sprintf "%.2f" (100.0 *. r.Campaign.success_rate);
    string_of_int (verify_msgs r);
    Printf.sprintf "%.0f"
      (float_of_int r.Campaign.total_msgs /. (r.Campaign.sim_end_ms /. 1000.0));
    fingerprint_cell r;
  ]

(* ---- the grid ----------------------------------------------------------- *)

type cell =
  | Eclipse_cell of Isp.profile * int * bool      (* sybils, quota enforced *)
  | Poison_cell of Isp.profile * float * bool     (* fraction, verify on *)
  | Forge_cell of Isp.profile * int * bool        (* forges, verify on *)

let run_cell (scale : Common.scale) cell =
  let seed = scale.Common.seed in
  let horizon_ms = scale.Common.attack_horizon_ms in
  (* Each cell is its churn trace plus one attack fault. *)
  let run profile p fault =
    Campaign.run ~seed ~shards:(Common.shards ()) ~pool:(Common.pool ())
      ~events:(Campaign.churn_events ~seed p @ [ Artifact.Fault fault ])
      (Campaign.network ~seed profile) p
  in
  match cell with
  | Eclipse_cell (profile, count, enforce) ->
    run profile (eclipse_params scale ~enforce) (eclipse_fault ~horizon_ms ~count)
  | Poison_cell (profile, fraction, verify) ->
    run profile (poison_params scale ~verify) (poison_fault ~horizon_ms ~fraction)
  | Forge_cell (profile, count, verify) ->
    run profile (forge_params scale ~verify) (forge_fault ~horizon_ms ~count)

let on_off b = if b then "on" else "OFF"

let attack (scale : Common.scale) =
  let cells =
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun n -> [ Eclipse_cell (profile, n, false); Eclipse_cell (profile, n, true) ])
          scale.Common.attack_sybils
        @ List.concat_map
            (fun f -> [ Poison_cell (profile, f, false); Poison_cell (profile, f, true) ])
            scale.Common.attack_poison_fracs
        @ List.concat_map
            (fun n -> [ Forge_cell (profile, n, false); Forge_cell (profile, n, true) ])
            scale.Common.attack_forges)
      scale.Common.isps
  in
  let reports = Common.parallel_map (run_cell scale) cells in
  let t_eclipse =
    Table.create
      ~title:
        (Printf.sprintf
           "Attack lab: eclipse — mined sybils into router %d's arc, coordinated \
            crash at %.0f%% horizon, vs per-PoP successor-list quota (%.0f s \
            horizon, capture/repair over %d arc targets)"
           eclipse_victim 70.0
           (scale.Common.attack_horizon_ms /. 1000.0)
           Campaign.victim_sweep_len)
      ~columns:("ISP" :: "quota" :: eclipse_columns)
  and t_poison =
    Table.create
      ~title:
        (Printf.sprintf
           "Attack lab: poison — router fraction fabricating stabilisation \
            backups under the highest churn rate, vs promotion verification \
            (%.0f s horizon)"
           (scale.Common.attack_horizon_ms /. 1000.0))
      ~columns:("ISP" :: "fraction" :: "verify" :: poison_columns)
  and t_forge =
    Table.create
      ~title:
        (Printf.sprintf
           "Attack lab: forge — joins claiming identifiers their credentials \
            do not certify, vs challenge/response verification (%.0f s horizon)"
           (scale.Common.attack_horizon_ms /. 1000.0))
      ~columns:("ISP" :: "forges" :: "verify" :: forge_columns)
  in
  List.iter2
    (fun cell r ->
      match cell with
      | Eclipse_cell (profile, _, enforce) ->
        Table.add_row t_eclipse
          (profile.Isp.profile_name :: on_off enforce :: eclipse_cells r)
      | Poison_cell (profile, fraction, verify) ->
        Table.add_row t_poison
          (profile.Isp.profile_name :: Printf.sprintf "%g" fraction
           :: on_off verify :: poison_cells r)
      | Forge_cell (profile, count, verify) ->
        Table.add_row t_forge
          (profile.Isp.profile_name :: string_of_int count :: on_off verify
           :: forge_cells r))
    cells reports;
  [ t_eclipse; t_poison; t_forge ]
