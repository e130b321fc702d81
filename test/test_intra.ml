(* Intradomain ROFL integration tests: bootstrap, joins, greedy lookup,
   forwarding, ephemeral hosts, failures, partitions, mobility. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Graph = Rofl_topology.Graph
module Gen = Rofl_topology.Gen
module Isp = Rofl_topology.Isp
module Linkstate = Rofl_linkstate.Linkstate
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Vnode = Rofl_core.Vnode
module Metrics = Rofl_netsim.Metrics

let small_net ?cfg seed =
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n:30 ~alpha:0.4 ~beta:0.2 in
  (Network.create ?cfg ~rng g, rng)

let isp_net seed =
  let rng = Prng.create seed in
  let isp = Isp.generate rng Isp.as3967 in
  (Network.create ~rng isp.Isp.graph, isp, rng)

let join_n net rng n =
  let g = Graph.n net.Network.graph in
  let rec go acc k =
    if k = 0 then acc
    else
      match
        Network.join_fresh_host net ~gateway:(Prng.int rng g) ~cls:Vnode.Stable
      with
      | Ok (id, _) -> go (id :: acc) (k - 1)
      | Error _ -> go acc k
  in
  go [] n

let assert_invariant net label =
  let r = Invariant.check net in
  if not r.Invariant.ok then
    Alcotest.failf "%s: %d violations, e.g. %s" label
      (List.length r.Invariant.violations)
      (match r.Invariant.violations with v :: _ -> v | [] -> "?")

(* ---------- bootstrap ---------- *)

let test_bootstrap_ring () =
  let net, _ = small_net 1 in
  Alcotest.(check int) "one member per router" 30 (Network.ring_size net);
  Alcotest.(check int) "no hosts yet" 0 (Network.host_count net);
  Alcotest.(check bool) "bootstrap flood charged" true (net.Network.bootstrap_msgs > 0);
  assert_invariant net "bootstrap"

let test_router_ids_deterministic () =
  Alcotest.(check bool) "router_id stable" true
    (Id.equal (Network.router_id 5) (Network.router_id 5));
  Alcotest.(check bool) "router_ids distinct" false
    (Id.equal (Network.router_id 5) (Network.router_id 6))

(* ---------- joins ---------- *)

let test_join_single_host () =
  let net, rng = small_net 2 in
  match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
  | Ok (id, o) ->
    Alcotest.(check bool) "messages charged" true (o.Network.join_msgs > 0);
    Alcotest.(check bool) "vnode registered" true (Network.find_vnode net id <> None);
    Alcotest.(check int) "ring grew" 31 (Network.ring_size net);
    assert_invariant net "single join"
  | Error e -> Alcotest.failf "join failed: %s" e

let test_join_many_invariant () =
  let net, rng = small_net 3 in
  let ids = join_n net rng 150 in
  Alcotest.(check int) "all joined" 150 (List.length ids);
  Alcotest.(check int) "host count" 150 (Network.host_count net);
  assert_invariant net "150 joins"

let test_join_duplicate_id_rejected () =
  let net, rng = small_net 4 in
  match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
  | Ok (id, _) ->
    (match Network.join_host net ~gateway:0 ~id ~cls:Vnode.Stable with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "duplicate identifier accepted")
  | Error e -> Alcotest.failf "first join failed: %s" e

let test_join_down_gateway_rejected () =
  let net, rng = small_net 5 in
  Linkstate.fail_router net.Network.ls 7;
  match
    Network.join_host net ~gateway:7 ~id:(Id.random rng) ~cls:Vnode.Stable
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "join via dead router accepted"

let test_join_overhead_scales_with_diameter () =
  (* Paper: join overhead ~ 4x diameter, NOT proportional to ring size. *)
  let net, rng = small_net 6 in
  let early = join_n net rng 20 in
  let m0 = Metrics.get net.Network.metrics Metrics.Join in
  let _ = join_n net rng 200 in
  let m1 = Metrics.get net.Network.metrics Metrics.Join in
  let late_avg = float_of_int (m1 - m0) /. 200.0 in
  let diameter = Graph.diameter_hops net.Network.graph in
  Alcotest.(check bool)
    (Printf.sprintf "late joins avg %.1f <= 8x diameter %d" late_avg diameter)
    true
    (late_avg <= 8.0 *. float_of_int diameter);
  ignore early

let test_sybil_limit_enforced () =
  let cfg = { Network.default_config with Network.sybil_limit = 3 } in
  let net, rng = small_net ~cfg 7 in
  let ok = ref 0 and rejected = ref 0 in
  for _ = 1 to 6 do
    match Network.join_fresh_host net ~gateway:0 ~cls:Vnode.Stable with
    | Ok _ -> incr ok
    | Error _ -> incr rejected
  done;
  ignore rng;
  Alcotest.(check int) "three admitted" 3 !ok;
  Alcotest.(check int) "three rejected" 3 !rejected

(* ---------- lookup / forwarding ---------- *)

let test_lookup_finds_exact () =
  let net, rng = small_net 8 in
  let ids = join_n net rng 60 in
  List.iteri
    (fun i id ->
      if i < 20 then begin
        let res =
          Network.lookup net ~from:(Prng.int rng 30) ~target:id ~category:Metrics.Data
            ~use_cache:true
        in
        match res.Network.status with
        | Network.Delivered vn ->
          Alcotest.(check bool) "right vnode" true (Id.equal vn.Vnode.id id)
        | Network.Predecessor _ | Network.Stuck _ -> Alcotest.fail "lookup missed member"
      end)
    ids

let test_lookup_predecessor_semantics () =
  let net, rng = small_net 9 in
  let _ = join_n net rng 50 in
  (* A random absent identifier must resolve to its oracle predecessor. *)
  for _ = 1 to 20 do
    let target = Id.random rng in
    if Network.find_vnode net target = None then begin
      let res =
        Network.lookup net ~from:(Prng.int rng 30) ~target ~category:Metrics.Data
          ~use_cache:true
      in
      match res.Network.status with
      | Network.Predecessor vn ->
        (match Rofl_idspace.Ring.predecessor target net.Network.oracle with
         | Some (want, _) ->
           Alcotest.(check bool) "oracle predecessor" true (Id.equal vn.Vnode.id want)
         | None -> Alcotest.fail "empty oracle")
      | Network.Delivered _ -> Alcotest.fail "delivered an absent id"
      | Network.Stuck _ -> Alcotest.fail "stuck in steady state"
    end
  done

let test_forward_all_pairs_sample () =
  let net, rng = small_net 10 in
  let ids = Array.of_list (join_n net rng 80) in
  for _ = 1 to 200 do
    let dst = Prng.sample rng ids in
    let d = Forward.route_packet net ~from:(Prng.int rng 30) ~dest:dst in
    match d.Forward.delivered_to with
    | Some vn -> Alcotest.(check bool) "delivered to target" true (Id.equal vn.Vnode.id dst)
    | None -> Alcotest.fail "undeliverable packet in steady state"
  done

let test_forward_same_router_short () =
  let net, rng = small_net 11 in
  (match Network.join_fresh_host net ~gateway:3 ~cls:Vnode.Stable with
   | Ok (id, _) ->
     let d = Forward.route_packet net ~from:3 ~dest:id in
     Alcotest.(check bool) "delivered" true (d.Forward.delivered_to <> None);
     Alcotest.(check int) "zero hops" 0 d.Forward.hops
   | Error e -> Alcotest.failf "join failed: %s" e);
  ignore rng

let test_stretch_reasonable () =
  let net, rng = small_net 12 in
  let ids = Array.of_list (join_n net rng 100) in
  let total = ref 0.0 and n = ref 0 in
  for _ = 1 to 100 do
    match Forward.stretch net ~src_gateway:(Prng.int rng 30) ~dst:(Prng.sample rng ids) with
    | Some s ->
      Alcotest.(check bool) "stretch >= 1" true (s >= 1.0);
      total := !total +. s;
      incr n
    | None -> ()
  done;
  Alcotest.(check bool) "mean stretch below 12" true (!total /. float_of_int !n < 12.0)

let test_cache_improves_stretch () =
  let no_cache = { Network.default_config with Network.cache_capacity = 0 } in
  let with_cache = { Network.default_config with Network.cache_capacity = 4096 } in
  let measure cfg =
    let net, rng = small_net ~cfg 13 in
    let ids = Array.of_list (join_n net rng 120) in
    let total = ref 0.0 and n = ref 0 in
    for _ = 1 to 150 do
      match Forward.stretch net ~src_gateway:(Prng.int rng 30) ~dst:(Prng.sample rng ids) with
      | Some s ->
        total := !total +. s;
        incr n
      | None -> ()
    done;
    !total /. float_of_int !n
  in
  let s0 = measure no_cache and s1 = measure with_cache in
  Alcotest.(check bool)
    (Printf.sprintf "cache helps: %.2f (none) vs %.2f (4k)" s0 s1)
    true (s1 < s0)

(* ---------- ephemeral hosts ---------- *)

let test_ephemeral_join_cheap () =
  let net, rng = small_net 14 in
  let _ = join_n net rng 40 in
  let stable_cost =
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
    | Ok (_, o) -> o.Network.join_msgs
    | Error e -> Alcotest.failf "stable join failed: %s" e
  in
  let eph_cost =
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Ephemeral with
    | Ok (_, o) -> o.Network.join_msgs
    | Error e -> Alcotest.failf "ephemeral join failed: %s" e
  in
  Alcotest.(check bool)
    (Printf.sprintf "ephemeral %d <= stable %d" eph_cost stable_cost)
    true (eph_cost <= stable_cost)

let test_ephemeral_not_in_ring () =
  let net, rng = small_net 15 in
  let _ = join_n net rng 30 in
  let before = Network.ring_size net in
  (match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Ephemeral with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "join failed: %s" e);
  Alcotest.(check int) "ring unchanged" before (Network.ring_size net)

let test_ephemeral_reachable_via_predecessor () =
  let net, rng = small_net 16 in
  let _ = join_n net rng 50 in
  match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Ephemeral with
  | Ok (id, _) ->
    for _ = 1 to 10 do
      let d = Forward.route_packet net ~from:(Prng.int rng 30) ~dest:id in
      Alcotest.(check bool) "delivered" true (d.Forward.delivered_to <> None)
    done;
    assert_invariant net "ephemeral attached"
  | Error e -> Alcotest.failf "join failed: %s" e

(* ---------- leaves and failures ---------- *)

let test_leave_clean () =
  let net, rng = small_net 17 in
  let ids = join_n net rng 60 in
  List.iteri (fun i id -> if i < 30 then
    match Network.leave_host net id with
    | Ok () -> ()
    | Error e -> Alcotest.failf "leave failed: %s" e) ids;
  Alcotest.(check int) "half left" 30 (Network.host_count net);
  assert_invariant net "after leaves";
  (* Remaining hosts still reachable. *)
  let alive = List.filteri (fun i _ -> i >= 30) ids in
  List.iter
    (fun id ->
      let d = Forward.route_packet net ~from:(Prng.int rng 30) ~dest:id in
      Alcotest.(check bool) "reachable" true (d.Forward.delivered_to <> None))
    alive

let test_fail_host_charges () =
  let net, rng = small_net 18 in
  let ids = join_n net rng 40 in
  match ids with
  | id :: _ ->
    (match Failure.fail_host net id with
     | Ok msgs -> Alcotest.(check bool) "teardown traffic" true (msgs > 0)
     | Error e -> Alcotest.failf "fail_host: %s" e);
    assert_invariant net "after host failure"
  | [] -> Alcotest.fail "no ids"

let test_fail_router_recovery () =
  let net, rng = small_net 19 in
  let _ = join_n net rng 80 in
  let victim = 5 in
  let fallback = 6 in
  let lost = List.length (Network.resident_ids net victim) - 1 in
  let msgs = Failure.fail_router net victim ~pick_gateway:(fun _ -> Some fallback) in
  Alcotest.(check bool) "recovery traffic" true (msgs > 0);
  assert_invariant net "after router failure";
  (* The failed-over hosts are reachable again. *)
  let r = Invariant.check_routability net ~samples:100 in
  Alcotest.(check bool) "routable" true r.Invariant.ok;
  ignore lost

let test_restore_router () =
  let net, rng = small_net 20 in
  let _ = join_n net rng 40 in
  ignore (Failure.fail_router net 3 ~pick_gateway:(fun _ -> Some 4));
  let msgs = Failure.restore_router net 3 in
  Alcotest.(check bool) "restore traffic" true (msgs > 0);
  Alcotest.(check int) "default vnode back" 30
    (Network.ring_size net - Network.host_count net);
  assert_invariant net "after restore"

let test_fail_link_no_partition () =
  let net, rng = small_net 21 in
  let _ = join_n net rng 60 in
  (* Find a link whose removal keeps the graph connected. *)
  let g = net.Network.graph in
  let link =
    List.find
      (fun { Graph.u; v; _ } ->
        Linkstate.fail_link net.Network.ls u v;
        let ok = Linkstate.reachable net.Network.ls u v in
        Linkstate.restore_link net.Network.ls u v;
        ok)
      (Graph.links g)
  in
  let msgs = Failure.fail_link net link.Graph.u link.Graph.v in
  Alcotest.(check bool) "lsa flood charged" true (msgs > 0);
  assert_invariant net "after link failure";
  let r = Invariant.check_routability net ~samples:80 in
  Alcotest.(check bool) "still routable" true r.Invariant.ok;
  ignore (Failure.restore_link net link.Graph.u link.Graph.v);
  assert_invariant net "after link restore"

let test_partition_and_merge () =
  let net, isp, rng = isp_net 22 in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  for _ = 1 to 100 do
    ignore
      (Network.join_fresh_host net ~gateway:(Prng.sample rng gateways) ~cls:Vnode.Stable)
  done;
  let pop = Isp.routers_of_pop isp 2 in
  let m1 = Failure.disconnect_routers net pop in
  Alcotest.(check bool) "disconnect traffic" true (m1 > 0);
  assert_invariant net "under partition";
  let m2 = Failure.reconnect_routers net pop in
  Alcotest.(check bool) "reconnect traffic" true (m2 > 0);
  assert_invariant net "after merge";
  let r = Invariant.check_routability net ~samples:150 in
  Alcotest.(check bool) "routable after merge" true r.Invariant.ok

let test_repeated_partitions_converge () =
  let net, isp, rng = isp_net 23 in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  for _ = 1 to 60 do
    ignore
      (Network.join_fresh_host net ~gateway:(Prng.sample rng gateways) ~cls:Vnode.Stable)
  done;
  for round = 1 to 5 do
    let pop_id = Prng.int rng (Array.length isp.Isp.pops) in
    let pop = Isp.routers_of_pop isp pop_id in
    ignore (Failure.disconnect_routers net pop);
    ignore (Failure.reconnect_routers net pop);
    assert_invariant net (Printf.sprintf "round %d" round)
  done

let test_mobility_keeps_label () =
  let net, rng = small_net 24 in
  let _ = join_n net rng 50 in
  match Network.join_fresh_host net ~gateway:2 ~cls:Vnode.Stable with
  | Ok (id, _) ->
    (match Failure.mobile_rehome net id ~new_gateway:9 with
     | Ok msgs ->
       Alcotest.(check bool) "mobility traffic" true (msgs > 0);
       (match Network.find_vnode net id with
        | Some vn -> Alcotest.(check int) "now at new gateway" 9 vn.Vnode.hosted_at
        | None -> Alcotest.fail "vnode lost in move");
       let d = Forward.route_packet net ~from:2 ~dest:id in
       Alcotest.(check bool) "reachable at new location" true
         (d.Forward.delivered_to <> None);
       assert_invariant net "after move"
     | Error e -> Alcotest.failf "move failed: %s" e)
  | Error e -> Alcotest.failf "join failed: %s" e

let test_stabilize_idempotent () =
  let net, rng = small_net 25 in
  let _ = join_n net rng 60 in
  let first = Network.stabilize net ~category:Metrics.Repair in
  Alcotest.(check int) "steady state charges nothing" 0 first

let prop_random_churn_keeps_invariants =
  QCheck.Test.make ~name:"random churn preserves ring invariants" ~count:8
    (QCheck.int_range 100 10_000)
    (fun seed ->
      let net, rng = small_net seed in
      let ids = ref [] in
      for _ = 1 to 120 do
        let op = Prng.int rng 10 in
        if op < 6 || !ids = [] then begin
          let cls = if Prng.float rng 1.0 < 0.25 then Vnode.Ephemeral else Vnode.Stable in
          match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls with
          | Ok (id, _) -> ids := id :: !ids
          | Error _ -> ()
        end
        else begin
          match !ids with
          | id :: rest ->
            ids := rest;
            if op < 9 then ignore (Failure.fail_host net id)
            else ignore (Failure.mobile_rehome net id ~new_gateway:(Prng.int rng 30))
          | [] -> ()
        end
      done;
      (Invariant.check net).Invariant.ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rofl_intra"
    [
      ( "bootstrap",
        [
          Alcotest.test_case "default ring" `Quick test_bootstrap_ring;
          Alcotest.test_case "router ids" `Quick test_router_ids_deterministic;
        ] );
      ( "join",
        [
          Alcotest.test_case "single host" `Quick test_join_single_host;
          Alcotest.test_case "many hosts invariant" `Quick test_join_many_invariant;
          Alcotest.test_case "duplicate rejected" `Quick test_join_duplicate_id_rejected;
          Alcotest.test_case "down gateway rejected" `Quick test_join_down_gateway_rejected;
          Alcotest.test_case "overhead ~ diameter" `Quick test_join_overhead_scales_with_diameter;
          Alcotest.test_case "sybil limit" `Quick test_sybil_limit_enforced;
        ] );
      ( "lookup",
        [
          Alcotest.test_case "finds exact ids" `Quick test_lookup_finds_exact;
          Alcotest.test_case "predecessor semantics" `Quick test_lookup_predecessor_semantics;
          Alcotest.test_case "all-pairs delivery" `Quick test_forward_all_pairs_sample;
          Alcotest.test_case "same-router delivery" `Quick test_forward_same_router_short;
          Alcotest.test_case "stretch reasonable" `Quick test_stretch_reasonable;
          Alcotest.test_case "cache improves stretch" `Quick test_cache_improves_stretch;
        ] );
      ( "ephemeral",
        [
          Alcotest.test_case "cheap join" `Quick test_ephemeral_join_cheap;
          Alcotest.test_case "not a ring member" `Quick test_ephemeral_not_in_ring;
          Alcotest.test_case "reachable via predecessor" `Quick
            test_ephemeral_reachable_via_predecessor;
        ] );
      ( "failure",
        [
          Alcotest.test_case "graceful leave" `Quick test_leave_clean;
          Alcotest.test_case "host failure" `Quick test_fail_host_charges;
          Alcotest.test_case "router failure" `Quick test_fail_router_recovery;
          Alcotest.test_case "router restore" `Quick test_restore_router;
          Alcotest.test_case "link failure" `Quick test_fail_link_no_partition;
          Alcotest.test_case "partition and merge" `Slow test_partition_and_merge;
          Alcotest.test_case "repeated partitions" `Slow test_repeated_partitions_converge;
          Alcotest.test_case "mobility" `Quick test_mobility_keeps_label;
          Alcotest.test_case "stabilize idempotent" `Quick test_stabilize_idempotent;
          q prop_random_churn_keeps_invariants;
        ] );
    ]
