(* Edge-case tests for the intradomain engine: degenerate configurations,
   minimal group sizes, exclusion lookups, accounting after failures. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Graph = Rofl_topology.Graph
module Gen = Rofl_topology.Gen
module Linkstate = Rofl_linkstate.Linkstate
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Vnode = Rofl_core.Vnode
module Metrics = Rofl_netsim.Metrics

let net_with ?cfg ~n seed =
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n ~alpha:0.45 ~beta:0.25 in
  (Network.create ?cfg ~rng g, rng)

let join_ok net ~gateway ~cls =
  match Network.join_fresh_host net ~gateway ~cls with
  | Ok (id, o) -> (id, o)
  | Error e -> Alcotest.failf "join failed: %s" e

let test_minimal_group_sizes () =
  let cfg =
    { Network.default_config with Network.succ_group_size = 1; Network.pred_group_size = 1 }
  in
  let net, rng = net_with ~cfg ~n:20 1 in
  let ids = ref [] in
  for _ = 1 to 60 do
    let id, _ = join_ok net ~gateway:(Prng.int rng 20) ~cls:Vnode.Stable in
    ids := id :: !ids
  done;
  let r = Invariant.check net in
  Alcotest.(check bool) "group size 1 still consistent" true r.Invariant.ok;
  (* Leaves with no group redundancy must still repair via handover. *)
  List.iteri
    (fun i id -> if i mod 2 = 0 then ignore (Network.leave_host net id))
    !ids;
  let r2 = Invariant.check net in
  Alcotest.(check bool) "consistent after leaves" true r2.Invariant.ok

let test_two_router_network () =
  let rng = Prng.create 2 in
  let g = Gen.line 2 ~latency_ms:1.0 in
  let net = Network.create ~rng g in
  let id0, _ = join_ok net ~gateway:0 ~cls:Vnode.Stable in
  let id1, _ = join_ok net ~gateway:1 ~cls:Vnode.Stable in
  let d = Forward.route_packet net ~from:0 ~dest:id1 in
  Alcotest.(check bool) "delivered across two routers" true (d.Forward.delivered_to <> None);
  let d0 = Forward.route_packet net ~from:1 ~dest:id0 in
  Alcotest.(check bool) "and back" true (d0.Forward.delivered_to <> None)

let test_no_auth_config () =
  let net, _ = net_with ~n:10 3 in
  (* [join_host] takes arbitrary (non-hash) identifiers: the handshake is
     [join_fresh_host]'s. *)
  (match Network.join_host net ~gateway:0 ~id:(Id.of_int 42) ~cls:Vnode.Stable with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "plain-id join failed: %s" e);
  Alcotest.(check bool) "resident" true (Network.find_vnode net (Id.of_int 42) <> None)

let test_lookup_exclude_self () =
  let net, rng = net_with ~n:20 4 in
  let ids = ref [] in
  for _ = 1 to 30 do
    let id, _ = join_ok net ~gateway:(Prng.int rng 20) ~cls:Vnode.Stable in
    ids := id :: !ids
  done;
  (* Looking up an existing member while excluding it must return its
     ring predecessor instead. *)
  List.iteri
    (fun i id ->
      if i < 10 then begin
        match Network.find_vnode net id with
        | None -> Alcotest.fail "missing vnode"
        | Some vn ->
          let res =
            Network.lookup ~exclude:id net ~from:vn.Vnode.hosted_at ~target:id
              ~category:Metrics.Data ~use_cache:true
          in
          (match res.Network.status with
           | Network.Predecessor pred ->
             (match Rofl_idspace.Ring.predecessor id net.Network.oracle with
              | Some (want, _) ->
                Alcotest.(check bool) "true predecessor" true
                  (Id.equal pred.Vnode.id want)
              | None -> Alcotest.fail "empty oracle")
           | Network.Delivered _ -> Alcotest.fail "excluded id delivered"
           | Network.Stuck _ -> Alcotest.fail "stuck")
      end)
    !ids

let test_ephemeral_cannot_host_attachments () =
  (* An ephemeral host's predecessor must always be a ring member, never
     another ephemeral. *)
  let net, rng = net_with ~n:20 5 in
  for _ = 1 to 10 do
    ignore (join_ok net ~gateway:(Prng.int rng 20) ~cls:Vnode.Stable)
  done;
  for _ = 1 to 10 do
    let id, _ = join_ok net ~gateway:(Prng.int rng 20) ~cls:Vnode.Ephemeral in
    match Network.find_vnode net id with
    | Some vn ->
      (match Vnode.first_pred vn with
       | Some p ->
         (match Network.find_vnode net p.Rofl_core.Pointer.dst with
          | Some pred_vn ->
            Alcotest.(check bool) "pred is a ring member" true
              (pred_vn.Vnode.host_class <> Vnode.Ephemeral)
          | None -> Alcotest.fail "dangling pred")
       | None -> Alcotest.fail "no pred")
    | None -> Alcotest.fail "vnode missing"
  done

let test_failure_of_every_router_one_by_one () =
  let net, rng = net_with ~n:12 6 in
  for _ = 1 to 24 do
    ignore (join_ok net ~gateway:(Prng.int rng 12) ~cls:Vnode.Stable)
  done;
  (* Fail a third of the routers sequentially with failover; the network
     must stay consistent and routable within the surviving component. *)
  List.iter
    (fun victim ->
      let alive_gateway =
        let rec pick c = if Linkstate.router_alive net.Network.ls c then c else pick ((c + 1) mod 12) in
        pick ((victim + 1) mod 12)
      in
      ignore (Failure.fail_router net victim ~pick_gateway:(fun _ -> Some alive_gateway));
      let r = Invariant.check net in
      Alcotest.(check bool)
        (Printf.sprintf "consistent after failing %d" victim)
        true r.Invariant.ok)
    [ 0; 5; 9 ];
  let rr = Invariant.check_routability net ~samples:60 in
  Alcotest.(check bool) "still routable" true rr.Invariant.ok

let test_metrics_isolated_per_network () =
  let a, _ = net_with ~n:10 7 in
  let b, _ = net_with ~n:10 8 in
  let before_b = Metrics.total b.Network.metrics in
  ignore (join_ok a ~gateway:0 ~cls:Vnode.Stable);
  Alcotest.(check int) "b unaffected by a's traffic" before_b
    (Metrics.total b.Network.metrics)

let test_leave_then_rejoin_same_id () =
  let net, _ = net_with ~n:10 9 in
  let id = Id.of_int 777 in
  (match Network.join_host net ~gateway:2 ~id ~cls:Vnode.Stable with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first join: %s" e);
  (match Network.leave_host net id with
   | Ok () -> ()
   | Error e -> Alcotest.failf "leave: %s" e);
  (match Network.join_host net ~gateway:5 ~id ~cls:Vnode.Stable with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "rejoin: %s" e);
  (match Network.find_vnode net id with
   | Some vn -> Alcotest.(check int) "rehomed" 5 vn.Vnode.hosted_at
   | None -> Alcotest.fail "vnode missing");
  let r = Invariant.check net in
  Alcotest.(check bool) "consistent" true r.Invariant.ok

let test_stretch_none_for_unknown_id () =
  let net, rng = net_with ~n:10 10 in
  ignore rng;
  Alcotest.(check bool) "unknown id" true
    (Forward.stretch net ~src_gateway:0 ~dst:(Id.of_int 123456) = None)

let () =
  Alcotest.run "rofl_intra_edge"
    [
      ( "edge",
        [
          Alcotest.test_case "minimal group sizes" `Quick test_minimal_group_sizes;
          Alcotest.test_case "two-router network" `Quick test_two_router_network;
          Alcotest.test_case "auth disabled" `Quick test_no_auth_config;
          Alcotest.test_case "lookup exclude self" `Quick test_lookup_exclude_self;
          Alcotest.test_case "ephemeral preds are members" `Quick
            test_ephemeral_cannot_host_attachments;
          Alcotest.test_case "sequential router failures" `Quick
            test_failure_of_every_router_one_by_one;
          Alcotest.test_case "metrics isolated" `Quick test_metrics_isolated_per_network;
          Alcotest.test_case "leave then rejoin" `Quick test_leave_then_rejoin_same_id;
          Alcotest.test_case "stretch unknown id" `Quick test_stretch_none_for_unknown_id;
        ] );
    ]
