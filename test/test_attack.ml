(* Adversarial-campaign tests: the verification gate actually gates, the
   diversity quota actually bounds, behaviours actually hurt, and every
   attack campaign stays byte-identical at any shard count.  Campaigns here
   run on a 24-router mini ISP so the whole file stays in test time. *)

module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Types = Rofl_proto.Types
module Campaign = Rofl_dynamics.Campaign
module Artifact = Rofl_doctor.Artifact
module Audit = Rofl_doctor.Audit
module Checks = Rofl_doctor.Checks

let profile =
  { Isp.profile_name = "attack-mini"; routers = 24; hosts = 1_000; pop_count = 3 }

(* [compare] treats nan = nan (unlike polymorphic =), and unreconverged
   campaigns carry [reconverge_ms = nan]. *)
let same_report a b = compare (a : Campaign.report) (b : Campaign.report) = 0

let quiet_params ~verify =
  {
    Campaign.default_params with
    Campaign.horizon_ms = 2_500.0;
    arrival_rate_per_s = 1.0;
    mean_lifetime_s = 60.0;
    move_fraction = 0.0;
    crash_fraction = 0.0;
    lookup_rate_per_s = 0.0;
    proto_cfg = { Proto.default_config with Proto.verify_joins = verify };
  }

let forge_events ~seed ~count p =
  Campaign.churn_events ~seed p
  @ [ Artifact.Fault (Artifact.Forge { at_ms = 1_000.0; count }) ]

let run_forge ~seed ~count ~verify ?shards () =
  let p = quiet_params ~verify in
  Campaign.run ~seed ~profile ?shards ~events:(forge_events ~seed ~count p) p

(* ---- the verification gate ---------------------------------------------- *)

let test_forge_rejected_with_verification () =
  let r = run_forge ~seed:3 ~count:6 ~verify:true () in
  Alcotest.(check int) "every forged claim rejected" 6 r.Campaign.join_rejects;
  Alcotest.(check int) "no forged resident" 0 r.Campaign.tainted;
  let verify_msgs =
    match List.assoc_opt "verify" r.Campaign.ctrl_msgs with Some n -> n | None -> 0
  in
  Alcotest.(check bool) "handshakes were charged on the wire" true (verify_msgs > 0)

let test_forge_admitted_without_verification () =
  let r = run_forge ~seed:3 ~count:6 ~verify:false () in
  Alcotest.(check int) "nothing rejected with the gate off" 0 r.Campaign.join_rejects;
  Alcotest.(check int) "every forged claim resident and tainted" 6 r.Campaign.tainted

(* The headline property: forged-identifier joins are rejected — and the
   whole campaign report is byte-identical — at any shard count. *)
let prop_forge_rejection_shard_identical =
  QCheck.Test.make ~name:"forged joins rejected byte-identically at shards 1/2/3"
    ~count:4 QCheck.small_nat (fun n ->
      let seed = 100 + n in
      let base = run_forge ~seed ~count:4 ~verify:true ~shards:1 () in
      if base.Campaign.join_rejects <> 4 then
        QCheck.Test.fail_reportf "expected 4 rejects, got %d"
          base.Campaign.join_rejects;
      List.iter
        (fun shards ->
          let r = run_forge ~seed ~count:4 ~verify:true ~shards () in
          if not (same_report r base) then
            QCheck.Test.fail_reportf "report diverged at shards=%d" shards)
        [ 2; 3 ];
      true)

(* ---- the diversity quota ------------------------------------------------ *)

let eclipse_params ~enforce =
  {
    (quiet_params ~verify:true) with
    Campaign.horizon_ms = 4_000.0;
    proto_cfg =
      { Proto.default_config with Proto.succ_quota = 2; quota_enforce = enforce };
  }

let eclipse_events ~seed ~count ~crash_at_ms p =
  Campaign.churn_events ~seed p
  @ [
      Artifact.Fault
        (Artifact.Eclipse { at_ms = 2_000.0; victim = 5; count; crash_at_ms });
    ]

let run_eclipse ~seed ~count ~enforce ?(crash_at_ms = -1.0) ?shards () =
  let p = eclipse_params ~enforce in
  Campaign.run ~seed ~profile ?shards
    ~audit:(Audit.config_for p.Campaign.proto_cfg)
    ~events:(eclipse_events ~seed ~count ~crash_at_ms p)
    p

let saturations (r : Campaign.report) =
  match r.Campaign.audit with
  | None -> Alcotest.fail "campaign ran without its auditor"
  | Some s ->
    List.length
      (List.filter
         (fun v -> v.Checks.check = "eclipse-saturation")
         s.Audit.violations)

let test_eclipse_saturates_unenforced_quota () =
  let r = run_eclipse ~seed:7 ~count:5 ~enforce:false () in
  Alcotest.(check int) "all sybils joined" 5 r.Campaign.sybils;
  Alcotest.(check bool) "mining cost was paid" true (r.Campaign.grind_draws > 0);
  Alcotest.(check bool) "declared-quota saturation detected" true (saturations r > 0);
  Alcotest.(check bool) "victim arc measurably captured" true
    (r.Campaign.victim_capture > 0.0)

(* Enforced quota, adversarial placement: no successor list may ever hold
   more admitted same-PoP entries than the declared share — checked by the
   auditor at every checkpoint of the whole campaign, under the exact sybil
   placement that saturates the unenforced ring. *)
let prop_quota_bounds_succ_lists =
  QCheck.Test.make ~name:"enforced quota bounds per-PoP share under eclipse"
    ~count:3 QCheck.small_nat (fun n ->
      let seed = 40 + n in
      let r = run_eclipse ~seed ~count:5 ~enforce:true () in
      if r.Campaign.sybils <> 5 then
        QCheck.Test.fail_reportf "expected 5 sybils, got %d" r.Campaign.sybils;
      if saturations r <> 0 then
        QCheck.Test.fail_reportf "enforced quota still saturated %d time(s)"
          (saturations r);
      true)

let test_eclipse_report_shard_identical () =
  let base = run_eclipse ~seed:7 ~count:5 ~enforce:false ~crash_at_ms:3_200.0 ~shards:1 () in
  let r2 = run_eclipse ~seed:7 ~count:5 ~enforce:false ~crash_at_ms:3_200.0 ~shards:2 () in
  Alcotest.(check bool) "eclipse campaign byte-identical at shards 1/2" true
    (same_report base r2);
  Alcotest.(check bool) "capture measured before the coordinated crash" true
    (base.Campaign.victim_capture >= 0.0);
  Alcotest.(check bool) "repair measured after the drain" true
    (base.Campaign.victim_repair >= 0.0)

(* ---- byzantine conduct -------------------------------------------------- *)

let run_with_behaviours ~seed behaviour =
  let rng = Prng.create (seed + Hashtbl.hash profile.Isp.profile_name) in
  let isp = Isp.generate rng profile in
  let n = Rofl_topology.Graph.n isp.Isp.graph in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let p =
    {
      (quiet_params ~verify:true) with
      Campaign.horizon_ms = 3_000.0;
      lookup_rate_per_s = 10.0;
    }
  in
  let behaviours = Option.map (fun b -> Array.make n b) behaviour in
  Campaign.run_events ~seed ~name:profile.Isp.profile_name ~graph:isp.Isp.graph
    ~gateways ~groups:isp.Isp.pop_of_router ?behaviours p
    (Campaign.churn_events ~seed p)

let test_droppers_black_hole_lookups () =
  let honest = run_with_behaviours ~seed:5 None in
  let attacked = run_with_behaviours ~seed:5 (Some Types.Drop_lookups) in
  Alcotest.(check bool) "honest ring resolves lookups" true
    (honest.Campaign.success_rate > 0.9);
  Alcotest.(check bool) "dropping routers black-hole the workload" true
    (attacked.Campaign.success_rate < 0.5)

let test_misrouters_corrupt_lookups () =
  let honest = run_with_behaviours ~seed:5 None in
  let attacked = run_with_behaviours ~seed:5 (Some Types.Misroute) in
  Alcotest.(check bool) "misrouting strictly hurts the success SLO" true
    (attacked.Campaign.success_rate < honest.Campaign.success_rate)

(* ---- poison ------------------------------------------------------------- *)

let poison_params ~verify =
  {
    (quiet_params ~verify) with
    Campaign.horizon_ms = 4_000.0;
    arrival_rate_per_s = 2.0;
    mean_lifetime_s = 1.5;
    move_fraction = 0.1;
    crash_fraction = 0.5;
    lookup_rate_per_s = 5.0;
  }

let run_poison ~seed ~verify ?shards () =
  let p = poison_params ~verify in
  Campaign.run ~seed ~profile ?shards
    ~events:
      (Campaign.churn_events ~seed p
      @ [ Artifact.Fault (Artifact.Poison { at_ms = 600.0; fraction = 0.5 }) ])
    p

let test_poison_report_shard_identical () =
  let base = run_poison ~seed:13 ~verify:true ~shards:1 () in
  let r2 = run_poison ~seed:13 ~verify:true ~shards:2 () in
  Alcotest.(check bool) "poison campaign byte-identical at shards 1/2" true
    (same_report base r2)

let () =
  let qsuite = List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ prop_forge_rejection_shard_identical; prop_quota_bounds_succ_lists ]
  in
  Alcotest.run "attack"
    [
      ( "forge",
        [
          Alcotest.test_case "rejected with verification on" `Quick
            test_forge_rejected_with_verification;
          Alcotest.test_case "admitted and tainted with verification off" `Quick
            test_forge_admitted_without_verification;
        ] );
      ( "eclipse",
        [
          Alcotest.test_case "saturates a declared-but-unenforced quota" `Quick
            test_eclipse_saturates_unenforced_quota;
          Alcotest.test_case "report byte-identical at shards 1/2" `Quick
            test_eclipse_report_shard_identical;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "droppers black-hole lookups" `Quick
            test_droppers_black_hole_lookups;
          Alcotest.test_case "misrouters corrupt lookups" `Quick
            test_misrouters_corrupt_lookups;
        ] );
      ( "poison",
        [
          Alcotest.test_case "report byte-identical at shards 1/2" `Quick
            test_poison_report_shard_identical;
        ] );
      ("properties", qsuite);
    ]
