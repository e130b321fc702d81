(* Cross-module consistency checks: independent implementations of the same
   quantity must agree, and the message accounting must balance. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Graph = Rofl_topology.Graph
module Isp = Rofl_topology.Isp
module Linkstate = Rofl_linkstate.Linkstate
module Asgraph = Rofl_asgraph.Asgraph
module Internet = Rofl_asgraph.Internet
module Policy = Rofl_asgraph.Policy
module Level = Rofl_inter.Level
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Vnode = Rofl_core.Vnode
module Sourceroute = Rofl_core.Sourceroute
module Metrics = Rofl_netsim.Metrics

let distance_opt d = if d < 0 then None else Some d

(* Level.route_within over a real AS must agree with the independent
   Policy.vf_distance_within implementation. *)
let test_level_vs_policy_distances () =
  let rng = Prng.create 1 in
  let inet = Internet.generate rng Internet.small_params in
  let g = inet.Internet.graph in
  let ctx = Level.make_ctx g in
  let policy = Policy.create g in
  let n = Asgraph.n g in
  for _ = 1 to 300 do
    let a = Prng.int rng n and b = Prng.int rng n in
    (* Unrestricted. *)
    Alcotest.(check (option int))
      (Printf.sprintf "root distance %d->%d" a b)
      (Policy.vf_distance_within policy ~root:None a b)
      (distance_opt (Level.distance_within ctx Level.Root a b));
    (* Restricted to a shared ancestor, when one exists. *)
    let ups = Asgraph.up_hierarchy g a in
    List.iter
      (fun anc ->
        if Asgraph.in_cone g ~root:anc b then
          Alcotest.(check (option int))
            (Printf.sprintf "cone(%d) distance %d->%d" anc a b)
            (Policy.vf_distance_within policy ~root:(Some anc) a b)
            (distance_opt (Level.distance_within ctx (Level.Real anc) a b)))
      ups
  done

(* Every route_within path must be level-internal and valley-free in shape:
   an ascent, at most one peer step, a descent. *)
let test_route_within_path_shape () =
  let rng = Prng.create 2 in
  let inet = Internet.generate rng Internet.small_params in
  let g = inet.Internet.graph in
  let ctx = Level.make_ctx g in
  let n = Asgraph.n g in
  let edge_kind a b =
    if Asgraph.is_provider_edge g ~customer:a ~provider:b then `Up
    else if Asgraph.is_provider_edge g ~customer:b ~provider:a then `Down
    else if Asgraph.is_peer_edge g a b then `Peer
    else `None
  in
  for _ = 1 to 300 do
    let a = Prng.int rng n and b = Prng.int rng n in
    let d = Level.route_within ctx Level.Root a b in
    if d < 0 then Alcotest.failf "no root-level route %d->%d" a b
    else begin
      let path = List.init (Level.path_length ctx) (Level.path_hop ctx) in
      Alcotest.(check int) "hops = |path|-1" d (List.length path - 1);
      Alcotest.(check (pair int int)) "path runs from a to b" (a, b)
        (List.hd path, List.nth path d);
      (* Adjacent and valley-free: up* peer? down*. *)
      let rec check_shape state = function
        | x :: (y :: _ as rest) ->
          (match (edge_kind x y, state) with
           | `None, _ -> Alcotest.failf "non-adjacent step %d-%d" x y
           | `Up, `Climb -> check_shape `Climb rest
           | `Peer, `Climb -> check_shape `Descend rest
           | `Down, (`Climb | `Descend) -> check_shape `Descend rest
           | `Up, `Descend -> Alcotest.fail "valley in path"
           | `Peer, `Descend -> Alcotest.fail "second peer step")
        | [ _ ] | [] -> ()
      in
      check_shape `Climb path
    end
  done

(* The stretch denominator (min-hop BFS) can never exceed the hop length of
   the latency-weighted SPF path. *)
let test_minhop_vs_spf () =
  let rng = Prng.create 3 in
  let isp = Isp.generate rng Isp.as3257 in
  let net = Network.create ~rng isp.Isp.graph in
  for _ = 1 to 300 do
    let a = Prng.int rng (Graph.n isp.Isp.graph) in
    let b = Prng.int rng (Graph.n isp.Isp.graph) in
    match (Forward.shortest_hops net a b, Linkstate.distance_hops net.Network.ls a b) with
    | Some bfs, Some spf ->
      Alcotest.(check bool)
        (Printf.sprintf "bfs %d <= spf %d (%d->%d)" bfs spf a b)
        true (bfs <= spf)
    | None, None -> ()
    | _ -> Alcotest.fail "reachability disagreement"
  done

(* The stretch BFS keeps per-domain scratch: figures take stretch samples on
   [Pool] domains.  Two domains hammering networks of different sizes, with
   links down, must see exactly the sequential answers -- a buffer shared
   between domains would be resized and overwritten under the other's feet. *)
let test_minhop_domain_safety () =
  let setup seed profile =
    let rng = Prng.create seed in
    let isp = Isp.generate rng profile in
    let net = Network.create ~rng isp.Isp.graph in
    let n = Graph.n isp.Isp.graph in
    List.iteri
      (fun i (l : Graph.link) ->
        if i mod 7 = 0 then Linkstate.fail_link net.Network.ls l.Graph.u l.Graph.v)
      (Graph.links isp.Isp.graph);
    let pairs = List.init 400 (fun _ -> (Prng.int rng n, Prng.int rng n)) in
    (net, pairs)
  in
  let jobs = [ setup 5 Isp.as3967; setup 6 Isp.as1239 ] in
  let answers (net, pairs) =
    List.init 20 (fun _ -> List.map (fun (a, b) -> Forward.shortest_hops net a b) pairs)
  in
  let sequential = List.map answers jobs in
  let pool = Rofl_util.Pool.create ~jobs:2 in
  let concurrent = Rofl_util.Pool.map pool answers jobs in
  Rofl_util.Pool.shutdown pool;
  List.iter2
    (fun name (want, got) ->
      Alcotest.(check (list (list (option int)))) name want got)
    [ "AS3967"; "AS1239" ]
    (List.combine sequential concurrent)

(* Message accounting balances: the per-category counters sum to the total,
   and a join's reported cost appears in the join-ish categories. *)
let test_metrics_balance () =
  let rng = Prng.create 4 in
  let g = Gen.waxman rng ~n:25 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  let m = net.Network.metrics in
  let sum_cats () = List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.categories m) in
  Alcotest.(check int) "categories sum to total" (Metrics.total m) (sum_cats ());
  let before = Metrics.get m Metrics.Join + Metrics.get m Metrics.Join_reply in
  (match Network.join_fresh_host net ~gateway:3 ~cls:Vnode.Stable with
   | Ok (_, o) ->
     let after = Metrics.get m Metrics.Join + Metrics.get m Metrics.Join_reply in
     Alcotest.(check int) "join cost lands in join categories" o.Network.join_msgs
       (after - before)
   | Error e -> Alcotest.failf "join: %s" e);
  Alcotest.(check int) "still balanced" (Metrics.total m) (sum_cats ())

(* Forwarding accounting: reported hops equal the data-category delta, and
   latency is zero iff hops are zero. *)
let test_forward_accounting () =
  let rng = Prng.create 5 in
  let g = Gen.waxman rng ~n:25 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  let ids = ref [] in
  for _ = 1 to 30 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng 25) ~cls:Vnode.Stable with
    | Ok (id, _) -> ids := id :: !ids
    | Error _ -> ()
  done;
  let ids = Array.of_list !ids in
  for _ = 1 to 50 do
    let before = Metrics.get net.Network.metrics Metrics.Data in
    let d = Forward.route_packet net ~from:(Prng.int rng 25) ~dest:(Prng.sample rng ids) in
    let after = Metrics.get net.Network.metrics Metrics.Data in
    Alcotest.(check int) "hops = data delta" d.Forward.hops (after - before);
    if d.Forward.hops = 0 then
      Alcotest.(check (float 1e-9)) "zero hops, zero latency" 0.0 d.Forward.latency_ms
    else Alcotest.(check bool) "positive latency" true (d.Forward.latency_ms > 0.0)
  done

(* The lookup's visited trail is a physically connected walk that starts at
   the source and carries exactly [msgs] links. *)
let test_lookup_visited_is_walk () =
  let rng = Prng.create 6 in
  let g = Gen.waxman rng ~n:25 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  for _ = 1 to 20 do
    ignore (Network.join_fresh_host net ~gateway:(Prng.int rng 25) ~cls:Vnode.Stable)
  done;
  for _ = 1 to 50 do
    let from = Prng.int rng 25 in
    let res =
      Network.lookup net ~from ~target:(Id.random rng) ~category:Metrics.Data ~use_cache:true
        ~visited:true
    in
    let visited = res.Network.visited in
    let n = Sourceroute.routers visited in
    if n = 0 then Alcotest.fail "empty walk";
    Alcotest.(check int) "starts at source" from (Sourceroute.router visited 0);
    Alcotest.(check int) "msgs = walk links" res.Network.msgs (n - 1);
    let rec adjacent i =
      i + 1 >= n
      || Graph.has_link g (Sourceroute.router visited i) (Sourceroute.router visited (i + 1))
         && adjacent (i + 1)
    in
    Alcotest.(check bool) "physically connected" true (adjacent 0)
  done

(* Identifiers derived from keypairs are uniform enough to balance a ring:
   the max gap over n members shouldn't be catastrophically above the mean
   (sanity check of the hash-based ID derivation). *)
let test_id_uniformity_from_keys () =
  let rng = Prng.create 7 in
  let ids =
    List.init 512 (fun _ ->
        Rofl_crypto.Identity.id_of_keypair (Rofl_crypto.Identity.generate rng))
  in
  let sorted = List.sort Id.compare ids in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let max_gap = ref Id.zero in
  for i = 0 to n - 1 do
    let next = arr.((i + 1) mod n) in
    let gap = Id.distance arr.(i) next in
    if Id.compare gap !max_gap > 0 then max_gap := gap
  done;
  (* Mean gap is 2^128/512 = 2^119; max of n exponential gaps ~ mean * ln n
     ≈ 6.2x mean.  20x is a loose alarm threshold. *)
  let threshold = Id.of_int64_pair (Int64.shift_left 1L 60) 0L in
  (* threshold = 2^124 = 32x the mean gap *)
  Alcotest.(check bool) "no catastrophic clustering" true
    (Id.compare !max_gap threshold < 0)

let () =
  Alcotest.run "rofl_consistency"
    [
      ( "cross-module",
        [
          Alcotest.test_case "level vs policy distances" `Quick
            test_level_vs_policy_distances;
          Alcotest.test_case "route shape valley-free" `Quick test_route_within_path_shape;
          Alcotest.test_case "minhop <= spf hops" `Quick test_minhop_vs_spf;
          Alcotest.test_case "minhop scratch is per-domain" `Quick test_minhop_domain_safety;
          Alcotest.test_case "metrics balance" `Quick test_metrics_balance;
          Alcotest.test_case "forward accounting" `Quick test_forward_accounting;
          Alcotest.test_case "lookup walk" `Quick test_lookup_visited_is_walk;
          Alcotest.test_case "key-derived id uniformity" `Quick
            test_id_uniformity_from_keys;
        ] );
    ]
