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
module Pointer = Rofl_core.Pointer
module Sourceroute = Rofl_core.Sourceroute
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
      (match r.Invariant.violations with v :: _ -> v | [] -> "?");
  Network.iter_members net (fun vn ->
      match Vnode.audit vn with
      | [] -> ()
      | e :: _ -> Alcotest.failf "%s: %s: %s" label (Id.to_short_string vn.Vnode.id) e)

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
  let msgs = Failure.fail_router net victim ~pick_gateway:(fun _ -> Some fallback) in
  Alcotest.(check bool) "recovery traffic" true (msgs > 0);
  assert_invariant net "after router failure";
  (* The failed-over hosts are reachable again. *)
  let r = Invariant.check_routability net ~samples:100 in
  Alcotest.(check bool) "routable" true r.Invariant.ok

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

(* ---------- successor columns ---------- *)

(* Identifiers clustered so that their keys (the top 62 bits) fall 0, 1,
   2 or 3 apart, equal keys differing below them, around [base]. *)
let near_id rng base =
  let hi = Int64.add base (Int64.of_int ((4 * Prng.int rng 4) + Prng.int rng 4)) in
  Id.of_int64_pair hi (Int64.of_int (Prng.int rng 4 - 2))

(* The resident ranking as a scan over each vnode's successor list: the
   per-hop ranker before the successor columns, kept as the reference. *)
let reference_rank ?exclude (net : Network.t) ~cur ~target residents =
  let healthy = Linkstate.healthy net.Network.ls in
  let target_key = Id.key target in
  let best = ref None in
  let improves id d =
    (match exclude with Some e -> not (Id.equal e id) | None -> true)
    &&
    match !best with
    | None -> true
    | Some (_, bid, bd) -> Id.closer_clockwise_keyed ~target d id bd bid
  in
  let consider_remote (p : Pointer.t) =
    if p.Pointer.dst_router <> cur then begin
      let d = (target_key - Id.key p.Pointer.dst) land Id.key_mask in
      if improves p.Pointer.dst d
         && (healthy || Sourceroute.is_valid net.Network.ls p.Pointer.route)
      then best := Some (Network.Remote p, p.Pointer.dst, d)
    end
  in
  List.iter
    (fun (vn : Vnode.t) ->
      if vn.Vnode.alive then begin
        let routable =
          match vn.Vnode.host_class with
          | Vnode.Stable | Vnode.Router_default -> true
          | Vnode.Ephemeral -> Id.equal vn.Vnode.id target
        in
        if routable then begin
          let d = (target_key - vn.Vnode.key) land Id.key_mask in
          if improves vn.Vnode.id d then best := Some (Network.Local vn, vn.Vnode.id, d)
        end;
        List.iter consider_remote (Vnode.succs vn)
      end)
    residents;
  Option.map (fun (c, _, _) -> c) !best

let same_candidate a b =
  match (a, b) with
  | None, None -> true
  | Some (Network.Local x), Some (Network.Local y) -> x == y
  | Some (Network.Remote p), Some (Network.Remote q) -> p == q
  | _ -> false

let show_candidate = function
  | None -> "none"
  | Some (Network.Local vn) -> "local " ^ Id.to_hex vn.Vnode.id
  | Some (Network.Remote p) -> "remote " ^ Id.to_hex p.Pointer.dst

(* One network with every link up and one with a link down, so that route
   validity is checked on the second. *)
let ranking_nets =
  lazy
    (let healthy, _ = small_net 31 in
     let broken, _ = small_net 31 in
     let g = broken.Network.graph in
     (match Graph.neighbors g 0 with
      | (v, _) :: _ -> Linkstate.fail_link broken.Network.ls 0 v
      | [] -> ());
     (healthy, broken))

let prop_columns_rank_like_lists =
  QCheck.Test.make ~name:"successor columns rank like the successor lists" ~count:600
    QCheck.int
    (fun seed ->
      let rng = Prng.create seed in
      let healthy, broken = Lazy.force ranking_nets in
      let net = if Prng.bool rng then healthy else broken in
      let cur = 0 in
      let g = net.Network.graph in
      let nbrs = Array.of_list (List.map fst (Graph.neighbors g cur)) in
      let base = Int64.of_int (Prng.int rng 1_000_000 * 64) in
      let target = near_id rng base in
      let ids = ref [ target ] in
      let fresh () =
        let id = near_id rng base in
        ids := id :: !ids;
        id
      in
      let pointer () =
        (* On [cur] now and then, else one link away, over any of cur's
           links (one of them is down on the broken network). *)
        let dst = fresh () in
        let hop = nbrs.(Prng.int rng (Array.length nbrs)) in
        if Prng.int rng 6 = 0 then
          Pointer.make Pointer.Successor ~dst ~dst_router:cur
            ~route:(Sourceroute.singleton cur)
        else
          Pointer.make Pointer.Successor ~dst ~dst_router:hop
            ~route:(Sourceroute.of_hops [ cur; hop ])
      in
      let resident () =
        let cls =
          match Prng.int rng 4 with
          | 0 -> Vnode.Ephemeral
          | 1 -> Vnode.Router_default
          | _ -> Vnode.Stable
        in
        let id =
          if cls = Vnode.Ephemeral && Prng.bool rng then target else fresh ()
        in
        let vn = Vnode.create id cls ~hosted_at:cur in
        Vnode.set_succs vn (List.init (Prng.int rng 6) (fun _ -> pointer ()));
        if Prng.int rng 8 = 0 then Vnode.mark_dead vn;
        vn
      in
      let residents = List.init (1 + Prng.int rng 4) (fun _ -> resident ()) in
      let exclude =
        if Prng.int rng 3 = 0 then Some (List.nth !ids (Prng.int rng (List.length !ids)))
        else None
      in
      let got = Network.rank_residents ?exclude net ~cur ~target residents in
      let want = reference_rank ?exclude net ~cur ~target residents in
      same_candidate got want
      || QCheck.Test.fail_reportf "columns picked %s, lists picked %s"
           (show_candidate got) (show_candidate want))

(* The successor-group mutations before the columns, on lists: the model
   the columns must mirror. *)
module Group_model = struct
  let sort_cw id ps =
    List.sort (fun (a : Pointer.t) (b : Pointer.t) -> Id.compare_dist id a.dst id b.dst) ps

  let dedup ps =
    List.rev
      (List.fold_left
         (fun kept (p : Pointer.t) ->
           if List.exists (fun (q : Pointer.t) -> Id.equal q.dst p.dst) kept then kept
           else p :: kept)
         [] ps)

  let take n l = List.filteri (fun i _ -> i < n) l
  let set id ps = dedup (sort_cw id ps)
  let add id p ~max_group succs = take max_group (set id (p :: succs))
end

let prop_columns_mirror_succs =
  QCheck.Test.make ~name:"successor columns mirror the group under every mutation"
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Prng.create seed in
      let base = Int64.of_int (Prng.int rng 1_000_000 * 64) in
      let vn = Vnode.create (near_id rng base) Vnode.Stable ~hosted_at:0 in
      let pool = Array.init 8 (fun _ -> near_id rng base) in
      let pointer_to kind dst_router =
        Pointer.make kind ~dst:pool.(Prng.int rng 8) ~dst_router
          ~route:(Sourceroute.singleton dst_router)
      in
      let pointer () = pointer_to Pointer.Successor (Prng.int rng 5) in
      let model = ref [] and preds = ref [] in
      let ok = ref true and why = ref "" in
      let check op =
        if !ok then begin
          let succs = Vnode.succs vn in
          if Vnode.audit vn <> [] then (ok := false; why := op ^ ": " ^ List.hd (Vnode.audit vn))
          else if not (List.length succs = List.length !model && List.for_all2 ( == ) succs !model)
          then (ok := false; why := op ^ ": successors differ from the model")
          else if not (List.length vn.Vnode.preds = List.length !preds
                       && List.for_all2 ( == ) vn.Vnode.preds !preds)
          then (ok := false; why := op ^ ": predecessors differ from the model")
          else if Vnode.succ_count vn <> List.length !model then
            (ok := false; why := op ^ ": succ_count")
        end
      in
      for _ = 1 to 40 do
        match Prng.int rng 7 with
        | 0 ->
          let ps = List.init (Prng.int rng 7) (fun _ -> pointer ()) in
          if Prng.bool rng then begin
            Vnode.set_succs vn ps;
            model := Group_model.set vn.Vnode.id ps
          end
          else begin
            let n = Prng.int rng 5 in
            Vnode.set_succs ~max_group:n vn ps;
            model := Group_model.take n (Group_model.set vn.Vnode.id ps)
          end;
          check "set_succs"
        | 1 | 2 | 3 ->
          let p = pointer () and max_group = 1 + Prng.int rng 5 in
          Vnode.add_succ vn p ~max_group;
          model := Group_model.add vn.Vnode.id p ~max_group !model;
          check "add_succ"
        | 4 ->
          let r = Prng.int rng 5 in
          let doomed (p : Pointer.t) = p.dst_router = r in
          let dropped = Vnode.drop_pointers_if vn doomed in
          let before = List.length !model + List.length !preds in
          model := List.filter (fun p -> not (doomed p)) !model;
          preds := List.filter (fun p -> not (doomed p)) !preds;
          if dropped <> before - List.length !model - List.length !preds then begin
            ok := false;
            why := "drop_pointers_if: count"
          end;
          check "drop_pointers_if"
        | 5 ->
          (* Failure's reroute: fresh routes, possibly to a new router, or
             gone. *)
          let r = Prng.int rng 5 in
          let reroute (p : Pointer.t) =
            if p.dst_router <> r then Some p
            else if Prng.bool rng then None
            else
              let dst_router = (r + 1) mod 5 in
              Some
                (Pointer.make p.kind ~dst:p.dst ~dst_router
                   ~route:(Sourceroute.singleton dst_router))
          in
          (* One decision per pointer, shared by the vnode and the model. *)
          let decided = Hashtbl.create 8 in
          let once (p : Pointer.t) =
            match Hashtbl.find_opt decided p with
            | Some q -> q
            | None ->
              let q = reroute p in
              Hashtbl.replace decided p q;
              q
          in
          Vnode.filter_map_pointers vn once;
          model := List.filter_map once !model;
          preds := List.filter_map once !preds;
          check "filter_map_pointers"
        | _ ->
          Vnode.add_pred vn (pointer_to Pointer.Predecessor (Prng.int rng 5)) ~max_group:3;
          preds := vn.Vnode.preds;
          check "add_pred"
      done;
      !ok || QCheck.Test.fail_reportf "%s" !why)

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
      ( "columns",
        [ q prop_columns_rank_like_lists; q prop_columns_mirror_succs ] );
    ]
