(* Topology substrate tests: graph primitives, generators, ISP profiles. *)

module Graph = Rofl_topology.Graph
module Gen = Rofl_topology.Gen
module Isp = Rofl_topology.Isp
module Prng = Rofl_util.Prng

let test_graph_basic () =
  let g = Graph.create 3 in
  Graph.add_link g 0 1 ~latency_ms:1.0;
  Graph.add_link g 1 2 ~latency_ms:2.0;
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check bool) "has link" true (Graph.has_link g 0 1);
  Alcotest.(check bool) "symmetric" true (Graph.has_link g 1 0);
  Alcotest.(check bool) "no link" false (Graph.has_link g 0 2);
  Alcotest.(check (float 1e-9)) "latency" 2.0 (Graph.latency g 1 2);
  Alcotest.(check (float 1e-9)) "latency, first neighbour" 1.0 (Graph.latency g 1 0);
  Alcotest.(check (float 1e-9)) "latency symmetric" 2.0 (Graph.latency g 2 1);
  Alcotest.check_raises "latency of no link" Not_found (fun () ->
      ignore (Graph.latency g 0 2));
  Alcotest.check_raises "latency range" (Invalid_argument "Graph: router index out of range")
    (fun () -> ignore (Graph.latency g 3 0));
  Alcotest.(check int) "degree hub" 2 (List.length (Graph.neighbors g 1))

let test_graph_rejects () =
  let g = Graph.create 2 in
  Graph.add_link g 0 1 ~latency_ms:1.0;
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop")
    (fun () -> Graph.add_link g 0 0 ~latency_ms:1.0);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_link: duplicate link")
    (fun () -> Graph.add_link g 1 0 ~latency_ms:1.0);
  Alcotest.check_raises "range" (Invalid_argument "Graph: router index out of range")
    (fun () -> Graph.add_link g 0 5 ~latency_ms:1.0)

let test_graph_bfs () =
  let g = Gen.line 5 ~latency_ms:1.0 in
  let d = Graph.bfs_distances g 0 () in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |] d;
  let blocked = Graph.bfs_distances g 0 ~blocked:(fun r -> r = 2) () in
  Alcotest.(check int) "blocked unreachable" max_int blocked.(4)

let test_graph_components () =
  let g = Graph.create 4 in
  Graph.add_link g 0 1 ~latency_ms:1.0;
  Graph.add_link g 2 3 ~latency_ms:1.0;
  let _, count = Graph.connected_components g () in
  Alcotest.(check int) "two components" 2 count;
  Alcotest.(check bool) "not connected" false (Graph.is_connected g)

let test_graph_diameter () =
  Alcotest.(check int) "line diameter" 4 (Graph.diameter_hops (Gen.line 5 ~latency_ms:1.0));
  Alcotest.(check int) "ring diameter" 3 (Graph.diameter_hops (Gen.ring 6 ~latency_ms:1.0));
  let star = Graph.create 6 in
  for leaf = 1 to 5 do
    Graph.add_link star 0 leaf ~latency_ms:1.0
  done;
  Alcotest.(check int) "star diameter" 2 (Graph.diameter_hops star)

let test_graph_links_list () =
  let g = Gen.ring 4 ~latency_ms:0.5 in
  Alcotest.(check int) "four links" 4 (List.length (Graph.links g))

let test_gen_waxman_connected () =
  for seed = 1 to 5 do
    let g = Gen.waxman (Prng.create seed) ~n:60 ~alpha:0.4 ~beta:0.2 in
    Alcotest.(check bool) "waxman connected" true (Graph.is_connected g)
  done

let test_gen_degenerate () =
  Alcotest.check_raises "ring too small" (Invalid_argument "Gen.ring: need n >= 3")
    (fun () -> ignore (Gen.ring 2 ~latency_ms:1.0))

let test_isp_profiles_match_paper () =
  (* Router counts from §6.1. *)
  Alcotest.(check int) "AS1221" 318 Isp.as1221.Isp.routers;
  Alcotest.(check int) "AS1239" 604 Isp.as1239.Isp.routers;
  Alcotest.(check int) "AS3257" 240 Isp.as3257.Isp.routers;
  Alcotest.(check int) "AS3967" 201 Isp.as3967.Isp.routers;
  Alcotest.(check int) "AS1239 hosts" 10_000_000 Isp.as1239.Isp.hosts;
  Alcotest.(check int) "four profiles" 4 (List.length Isp.all_profiles)

let test_isp_generation () =
  List.iter
    (fun profile ->
      let isp = Isp.generate (Prng.create 5) profile in
      Alcotest.(check int)
        (profile.Isp.profile_name ^ " router count")
        profile.Isp.routers
        (Graph.n isp.Isp.graph);
      Alcotest.(check bool)
        (profile.Isp.profile_name ^ " connected")
        true
        (Graph.is_connected isp.Isp.graph);
      Alcotest.(check int)
        (profile.Isp.profile_name ^ " PoP count")
        profile.Isp.pop_count
        (Array.length isp.Isp.pops);
      (* Every router belongs to exactly one PoP. *)
      Array.iteri
        (fun r pop ->
          Alcotest.(check bool)
            (Printf.sprintf "router %d has a PoP" r)
            true (pop >= 0 && pop < profile.Isp.pop_count))
        isp.Isp.pop_of_router)
    Isp.all_profiles

let test_isp_pop_structure () =
  let isp = Isp.generate (Prng.create 6) Isp.as3967 in
  let total =
    Array.fold_left
      (fun acc (p : Isp.pop) -> acc + List.length p.Isp.core + List.length p.Isp.access)
      0 isp.Isp.pops
  in
  Alcotest.(check int) "PoPs partition routers" (Graph.n isp.Isp.graph) total;
  Array.iter
    (fun (p : Isp.pop) ->
      Alcotest.(check bool) "each PoP has a core" true (p.Isp.core <> []))
    isp.Isp.pops;
  (* Core and edge router lists are consistent with the PoPs. *)
  let cores = Isp.core_routers isp and edges = Isp.edge_routers isp in
  Alcotest.(check int) "core+edge = all" (Graph.n isp.Isp.graph)
    (List.length cores + List.length edges)

let test_isp_determinism () =
  let a = Isp.generate (Prng.create 9) Isp.as3257 in
  let b = Isp.generate (Prng.create 9) Isp.as3257 in
  Alcotest.(check int) "same link count" (Graph.m a.Isp.graph) (Graph.m b.Isp.graph);
  List.iter2
    (fun (la : Graph.link) (lb : Graph.link) ->
      Alcotest.(check int) "same endpoints" la.Graph.u lb.Graph.u;
      Alcotest.(check int) "same endpoints" la.Graph.v lb.Graph.v)
    (Graph.links a.Isp.graph) (Graph.links b.Isp.graph)

let test_isp_latencies_positive () =
  let isp = Isp.generate (Prng.create 10) Isp.as1221 in
  Graph.iter_links isp.Isp.graph (fun { Graph.latency_ms; _ } ->
      Alcotest.(check bool) "latency positive" true (latency_ms > 0.0))

let prop_waxman_always_connected =
  QCheck.Test.make ~name:"waxman is connected for any seed" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let g = Gen.waxman (Prng.create seed) ~n:40 ~alpha:0.3 ~beta:0.15 in
      Graph.is_connected g)

let () =
  Alcotest.run "rofl_topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "rejects bad links" `Quick test_graph_rejects;
          Alcotest.test_case "bfs" `Quick test_graph_bfs;
          Alcotest.test_case "components" `Quick test_graph_components;
          Alcotest.test_case "diameter" `Quick test_graph_diameter;
          Alcotest.test_case "links/degree" `Quick test_graph_links_list;
        ] );
      ( "generators",
        [
          Alcotest.test_case "waxman connected" `Quick test_gen_waxman_connected;
          Alcotest.test_case "degenerate sizes" `Quick test_gen_degenerate;
          QCheck_alcotest.to_alcotest prop_waxman_always_connected;
        ] );
      ( "isp",
        [
          Alcotest.test_case "profiles match paper" `Quick test_isp_profiles_match_paper;
          Alcotest.test_case "generation" `Quick test_isp_generation;
          Alcotest.test_case "PoP structure" `Quick test_isp_pop_structure;
          Alcotest.test_case "determinism" `Quick test_isp_determinism;
          Alcotest.test_case "latencies positive" `Quick test_isp_latencies_positive;
        ] );
    ]
