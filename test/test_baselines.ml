(* Baseline implementations: CMU-ETHERNET cost model, OSPF loads,
   BGP-policy stretch, compact routing. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Graph = Rofl_topology.Graph
module Internet = Rofl_asgraph.Internet
module Cmu = Rofl_baselines.Cmu_ethernet
module Ospf = Rofl_baselines.Ospf_hosts
module Bgp = Rofl_baselines.Bgp_policy

let test_cmu_flood_cost () =
  let g = Gen.ring 10 ~latency_ms:1.0 in
  let c = Cmu.create g in
  Cmu.join_host c;
  Alcotest.(check int) "per-join = 2 links" 20 (Cmu.total_messages c);
  Cmu.join_hosts c 4;
  Alcotest.(check int) "cumulative" 100 (Cmu.total_messages c);
  Alcotest.(check int) "hosts" 5 (Cmu.hosts c);
  Cmu.leave_host c;
  Alcotest.(check int) "leave floods too" 120 (Cmu.total_messages c);
  Alcotest.(check int) "host count down" 4 (Cmu.hosts c)

let test_cmu_memory () =
  let g = Gen.ring 10 ~latency_ms:1.0 in
  let c = Cmu.create g in
  Cmu.join_hosts c 100;
  Alcotest.(check int) "entry per host + routers" 110 (Cmu.entries_per_router c)

let test_cmu_routes_shortest () =
  let g = Gen.ring 10 ~latency_ms:1.0 in
  let c = Cmu.create g in
  Alcotest.(check (option int)) "shortest" (Some 3) (Cmu.route_hops c 0 3);
  Alcotest.(check (option int)) "wraps" (Some 3) (Cmu.route_hops c 0 7)

let test_ospf_loads () =
  let g = Graph.create 5 in
  for leaf = 1 to 4 do
    Graph.add_link g 0 leaf ~latency_ms:1.0
  done;
  let o = Ospf.create g in
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool) "delivered" true (Ospf.route o ~src ~dst >= 0))
    [ (1, 2); (2, 3); (3, 4) ];
  let load = Ospf.router_load o in
  (* Every star path transits the hub. *)
  Alcotest.(check int) "hub load" 3 load.(0);
  let fracs = Ospf.load_fractions o in
  let sum = Array.fold_left ( +. ) 0.0 fracs in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 sum

let test_ospf_memory_models () =
  let g = Gen.ring 8 ~latency_ms:1.0 in
  let o = Ospf.create g in
  Alcotest.(check int) "router routes" 8 (Ospf.entries_per_router o)

let test_bgp_policy_stretch () =
  let inet = Internet.generate (Prng.create 3) Internet.small_params in
  let b = Bgp.create inet.Internet.graph in
  let rng = Prng.create 4 in
  let n = Rofl_asgraph.Asgraph.n inet.Internet.graph in
  let ases = Array.init n (fun i -> i) in
  let samples = Bgp.sample_stretches b rng ~ases ~samples:300 in
  Alcotest.(check bool) "got samples" true (List.length samples > 100);
  List.iter
    (fun s -> Alcotest.(check bool) "stretch >= 1" true (s >= 1.0))
    samples;
  Alcotest.(check bool) "mean stretch modest" true (Rofl_util.Stats.mean samples < 2.5)

let test_bgp_stretch_none_for_self () =
  let inet = Internet.generate (Prng.create 5) Internet.small_params in
  let b = Bgp.create inet.Internet.graph in
  (* Only AS 3 to draw from: every pair is (3, 3), which has no stretch. *)
  Alcotest.(check (list (float 0.1))) "self" []
    (Bgp.sample_stretches b (Prng.create 6) ~ases:[| 3 |] ~samples:20)

(* ---------- Compact routing ---------- *)

module Compact = Rofl_baselines.Compact

let test_compact_stretch_bound () =
  let local = Prng.create 11 in
  let g = Gen.waxman local ~n:80 ~alpha:0.4 ~beta:0.2 in
  let c = Compact.build local g in
  for _ = 1 to 300 do
    let a = Prng.int local 80 and b = Prng.int local 80 in
    match Compact.stretch c ~src:a ~dst:b with
    | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "stretch %.2f within bound" s)
        true
        (s >= 1.0 && s <= Compact.max_stretch_bound +. 1e-9)
    | None -> ()
  done

let test_compact_cluster_direct () =
  let local = Prng.create 12 in
  let g = Gen.line 10 ~latency_ms:1.0 in
  let c = Compact.build local ~landmarks:2 g in
  (* Cluster routes are exact shortest paths. *)
  for u = 0 to 9 do
    for v = 0 to 9 do
      if Compact.in_cluster c u v then begin
        match Compact.route_hops c ~src:u ~dst:v with
        | Some h -> Alcotest.(check int) "direct = |u-v|" (abs (u - v)) h
        | None -> Alcotest.fail "cluster member unreachable"
      end
    done
  done

let test_compact_tables_sublinear () =
  let local = Prng.create 13 in
  let g = Gen.waxman local ~n:200 ~alpha:0.3 ~beta:0.15 in
  let c = Compact.build local g in
  Alcotest.(check bool) "landmark count ~ sqrt(n log n)" true
    (Compact.landmark_count c >= 14 && Compact.landmark_count c <= 80);
  Alcotest.(check bool)
    (Printf.sprintf "avg table %.0f well below n" (Compact.avg_table_entries c))
    true
    (Compact.avg_table_entries c < 150.0)

let test_compact_self_and_home () =
  let local = Prng.create 14 in
  let g = Gen.ring 12 ~latency_ms:1.0 in
  let c = Compact.build local ~landmarks:3 g in
  Alcotest.(check (option int)) "self route" (Some 0) (Compact.route_hops c ~src:4 ~dst:4);
  for v = 0 to 11 do
    let l = Compact.home_landmark c v in
    Alcotest.(check bool) "home landmark valid" true (l >= 0 && l < 12)
  done

let () =
  Alcotest.run "rofl_baselines"
    [
      ( "cmu_ethernet",
        [
          Alcotest.test_case "flood cost" `Quick test_cmu_flood_cost;
          Alcotest.test_case "memory" `Quick test_cmu_memory;
          Alcotest.test_case "routes shortest" `Quick test_cmu_routes_shortest;
        ] );
      ( "ospf",
        [
          Alcotest.test_case "loads" `Quick test_ospf_loads;
          Alcotest.test_case "memory models" `Quick test_ospf_memory_models;
        ] );
      ( "bgp_policy",
        [
          Alcotest.test_case "stretch samples" `Quick test_bgp_policy_stretch;
          Alcotest.test_case "self is None" `Quick test_bgp_stretch_none_for_self;
        ] );
      ( "compact",
        [
          Alcotest.test_case "stretch bound" `Quick test_compact_stretch_bound;
          Alcotest.test_case "cluster direct" `Quick test_compact_cluster_direct;
          Alcotest.test_case "sublinear tables" `Quick test_compact_tables_sublinear;
          Alcotest.test_case "self and home" `Quick test_compact_self_and_home;
        ] );
    ]
