(* Churn-campaign subsystem: SLO reports from the asynchronous lab must be
   sane, meet the paper-level availability bar at low churn, and be a pure
   function of (seed, graph, params). *)

module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Campaign = Rofl_dynamics.Campaign
module Proto = Rofl_proto.Proto

let graph seed = Gen.waxman (Prng.create seed) ~n:30 ~alpha:0.4 ~beta:0.2

(* Hosts attach anywhere; no diversity groups. *)
let network seed =
  {
    Campaign.name = "waxman30";
    graph = graph seed;
    gateways = Array.init 30 (fun i -> i);
    groups = [||];
  }

let low_churn =
  {
    Campaign.default_params with
    Campaign.horizon_ms = 6_000.0;
    arrival_rate_per_s = 2.0;
    mean_lifetime_s = 30.0;
    move_fraction = 0.2;
    crash_fraction = 0.2;
    lookup_rate_per_s = 10.0;
  }

let harsh_churn =
  { low_churn with Campaign.mean_lifetime_s = 1.0; arrival_rate_per_s = 4.0 }

let test_low_churn_slos () =
  let r =
    Campaign.run ~seed:42 (network 1) low_churn
  in
  Alcotest.(check bool) "sessions joined" true (r.Campaign.joins >= 3);
  Alcotest.(check bool) "lookups launched" true (r.Campaign.lookups > 30);
  Alcotest.(check bool)
    (Printf.sprintf "success rate %.4f >= 0.99" r.Campaign.success_rate)
    true
    (r.Campaign.success_rate >= 0.99);
  Alcotest.(check bool) "reconverged after the trace drained" true r.Campaign.reconverged;
  Alcotest.(check bool) "reconvergence time measured" true
    (Float.is_finite r.Campaign.reconverge_ms && r.Campaign.reconverge_ms >= 0.0);
  Alcotest.(check bool) "latency percentiles ordered" true
    (r.Campaign.lat_p50_ms <= r.Campaign.lat_p95_ms
    && r.Campaign.lat_p95_ms <= r.Campaign.lat_p99_ms);
  Alcotest.(check bool) "no join abandoned at low churn" true
    (r.Campaign.join_failures = 0);
  Alcotest.(check bool) "control messages charged" true (r.Campaign.total_msgs > 0);
  Alcotest.(check bool) "queue high-water mark seen" true (r.Campaign.peak_queue > 0);
  (* Per-category accounting covers the protocol's message families. *)
  List.iter
    (fun cat ->
      Alcotest.(check bool) (cat ^ " messages present") true
        (List.mem_assoc cat r.Campaign.ctrl_msgs))
    [ "join"; "stabilize"; "lookup" ]

let test_harsh_churn_still_heals () =
  let r =
    Campaign.run ~seed:43 (network 1) harsh_churn
  in
  Alcotest.(check bool) "crashes happened" true (r.Campaign.crashes > 0);
  Alcotest.(check bool) "failovers repaired them" true (r.Campaign.failovers > 0);
  Alcotest.(check bool) "stale windows measured and closed" true
    (r.Campaign.stale_count > 0);
  Alcotest.(check int) "no stale pointer at the end" 0 r.Campaign.stale_unrepaired;
  Alcotest.(check bool) "reconverged within the drain budget" true r.Campaign.reconverged

let test_campaign_deterministic () =
  let run () =
    Campaign.run ~seed:7 (network 2) harsh_churn
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical reports for identical (seed, graph, params)" true
    (a = b);
  let c =
    Campaign.run ~seed:8 (network 2) harsh_churn
  in
  Alcotest.(check bool) "another seed gives another campaign" true
    (c.Campaign.total_msgs <> a.Campaign.total_msgs || c.Campaign.joins <> a.Campaign.joins)

let test_no_lookups_edge () =
  let p = { low_churn with Campaign.lookup_rate_per_s = 0.0 } in
  let r = Campaign.run ~seed:9 (network 3) p in
  Alcotest.(check int) "no lookup launched" 0 r.Campaign.lookups;
  Alcotest.(check (float 1e-9)) "success rate defaults to 1" 1.0 r.Campaign.success_rate;
  Alcotest.(check bool) "still reconverges" true r.Campaign.reconverged

let test_isp_campaign () =
  (* On the ISP network the churn experiment derives. *)
  let p =
    {
      low_churn with
      Campaign.horizon_ms = 2_000.0;
      arrival_rate_per_s = 2.0;
      lookup_rate_per_s = 5.0;
    }
  in
  let r =
    Campaign.run ~seed:11 (Campaign.network ~seed:11 Rofl_topology.Isp.as3967) p
  in
  Alcotest.(check string) "named after the profile" "AS3967" r.Campaign.name;
  Alcotest.(check bool) "reconverged" true r.Campaign.reconverged;
  Alcotest.(check bool) "available" true (r.Campaign.success_rate >= 0.99)

let () =
  Alcotest.run "rofl_dynamics"
    [
      ( "campaign",
        [
          Alcotest.test_case "low-churn SLOs" `Quick test_low_churn_slos;
          Alcotest.test_case "harsh churn heals" `Quick test_harsh_churn_still_heals;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "no-lookup edge" `Quick test_no_lookups_edge;
          Alcotest.test_case "ISP campaign" `Slow test_isp_campaign;
        ] );
    ]
