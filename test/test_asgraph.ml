(* AS-graph substrate tests: relationships, cones, hierarchy generation,
   policy routing (valley-free and BGP-like). *)

module Asgraph = Rofl_asgraph.Asgraph
module Internet = Rofl_asgraph.Internet
module Policy = Rofl_asgraph.Policy
module Prng = Rofl_util.Prng

(* A small hand-built hierarchy:
       0   (tier-1)
      / \
     1   2       1--2 peer? no: 1 and 2 are customers of 0; make 3,4 stubs
    / \   \
   3   4   5      and a peer link between 1 and 2.            *)
let toy () =
  let g = Asgraph.create 6 in
  Asgraph.add_provider g ~customer:1 ~provider:0;
  Asgraph.add_provider g ~customer:2 ~provider:0;
  Asgraph.add_provider g ~customer:3 ~provider:1;
  Asgraph.add_provider g ~customer:4 ~provider:1;
  Asgraph.add_provider g ~customer:5 ~provider:2;
  Asgraph.add_peer g 1 2;
  g

let test_basic_relationships () =
  let g = toy () in
  Alcotest.(check (list int)) "providers of 3" [ 1 ] (Asgraph.providers g 3);
  Alcotest.(check (list int)) "customers of 1" [ 4; 3 ] (Asgraph.customers g 1);
  Alcotest.(check (list int)) "peers of 1" [ 2 ] (Asgraph.peers g 1);
  Alcotest.(check bool) "provider edge" true (Asgraph.is_provider_edge g ~customer:3 ~provider:1);
  Alcotest.(check bool) "peer edge symmetric" true (Asgraph.is_peer_edge g 2 1);
  Alcotest.(check bool) "not multihomed" false (Asgraph.multihomed g 3)

let test_validate_ok () =
  match Asgraph.validate (toy ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "toy should validate: %s" e

let test_validate_cycle () =
  let g = Asgraph.create 2 in
  Asgraph.add_provider g ~customer:0 ~provider:1;
  Asgraph.add_provider g ~customer:1 ~provider:0;
  match Asgraph.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cycle should be rejected"

let test_cones () =
  let g = toy () in
  Alcotest.(check int) "root cone" 6 (Asgraph.cone_size g 0);
  Alcotest.(check int) "AS1 cone" 3 (Asgraph.cone_size g 1);
  Alcotest.(check int) "stub cone" 1 (Asgraph.cone_size g 3);
  Alcotest.(check bool) "3 in cone(1)" true (Asgraph.in_cone g ~root:1 3);
  Alcotest.(check bool) "5 not in cone(1)" false (Asgraph.in_cone g ~root:1 5);
  Alcotest.(check bool) "everything in cone(0)" true (Asgraph.in_cone g ~root:0 5);
  (* A new edge after the cones were computed invalidates them. *)
  Asgraph.add_provider g ~customer:5 ~provider:1;
  Alcotest.(check int) "AS1 cone grows" 4 (Asgraph.cone_size g 1);
  Alcotest.(check bool) "5 now in cone(1)" true (Asgraph.in_cone g ~root:1 5)

let test_up_hierarchy () =
  let g = toy () in
  Alcotest.(check (list int)) "up of 3 (by cone size)" [ 3; 1; 0 ] (Asgraph.up_hierarchy g 3);
  Alcotest.(check (list int)) "up of 0" [ 0 ] (Asgraph.up_hierarchy g 0)

(* The derived tables (cones, their sizes, up-hierarchies) are rebuilt
   after an edge lands on a graph that has already answered queries. *)
let test_derived_invalidated () =
  let g = toy () in
  Alcotest.(check (list int)) "up of 5 before" [ 5; 2; 0 ] (Asgraph.up_hierarchy g 5);
  Alcotest.(check int) "AS1 cone before" 3 (Asgraph.cone_size g 1);
  Asgraph.add_provider g ~customer:5 ~provider:1;
  Alcotest.(check (list int)) "up of 5 after" [ 5; 2; 1; 0 ] (Asgraph.up_hierarchy g 5);
  Alcotest.(check int) "AS1 cone after" 4 (Asgraph.cone_size g 1);
  Alcotest.(check (list int)) "lca(3,5) after" [ 1 ] (Asgraph.least_common_ancestors g 3 5)

(* Every derived answer of a graph, in one string. *)
let derived_answers g =
  let n = Asgraph.n g in
  let b = Buffer.create (n * n) in
  for x = 0 to n - 1 do
    Buffer.add_string b (string_of_int (Asgraph.cone_size g x));
    List.iter (fun a -> Buffer.add_string b (" " ^ string_of_int a)) (Asgraph.up_hierarchy g x);
    Buffer.add_char b ':';
    for a = 0 to n - 1 do
      Buffer.add_char b (if Asgraph.in_cone g ~root:x a then '1' else '0')
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* Experiments share one generated Internet across pool domains, so two
   domains may race to build its derived tables; both must read the same
   answers as a sequential pass over an identical graph. *)
let test_derived_shared_across_domains () =
  let pool = Rofl_util.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Rofl_util.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun seed ->
          let gen () = (Internet.generate (Prng.create seed) Internet.default_params).Internet.graph in
          let want = derived_answers (gen ()) in
          let shared = gen () in
          List.iteri
            (fun i got ->
              Alcotest.(check bool) (Printf.sprintf "seed %d, domain task %d" seed i) true
                (String.equal got want))
            (Rofl_util.Pool.map pool (fun _ -> derived_answers shared) [ 0; 1 ]))
        [ 1; 2; 3 ])

let test_tier1s_lca () =
  let g = toy () in
  Alcotest.(check (list int)) "tier1" [ 0 ] (Asgraph.tier1s g);
  Alcotest.(check (list int)) "lca(3,4)" [ 1 ] (Asgraph.least_common_ancestors g 3 4);
  Alcotest.(check (list int)) "lca(3,5)" [ 0 ] (Asgraph.least_common_ancestors g 3 5)

let test_edges_in_up_hierarchy () =
  let g = toy () in
  Alcotest.(check int) "two edges above stub 3" 2 (Asgraph.edges_in_up_hierarchy g 3)

let test_topo_order () =
  let g = toy () in
  let order = Asgraph.topo_order g in
  let pos = Array.make 6 0 in
  Array.iteri (fun i a -> pos.(a) <- i) order;
  (* Providers come before customers. *)
  Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
  Alcotest.(check bool) "1 before 3" true (pos.(1) < pos.(3));
  Alcotest.(check bool) "2 before 5" true (pos.(2) < pos.(5))

(* ---------- Policy ---------- *)

(* Reference model for [Policy.bgp_distance]: Gao–Rexford route tables for
   one destination [d] over every AS, the way the policy once kept them per
   destination.
   - customer routes exist at every ancestor of d (learned from a customer),
   - peer routes at ASes with a peer holding a customer route,
   - provider routes trickle down from each AS's selected route. *)
type tables = { cust : int array; peer : int array; prov : int array }

let inf = max_int

let reference_tables g d =
  let n = Asgraph.n g in
  let cust = Array.make n inf in
  let peer = Array.make n inf in
  let prov = Array.make n inf in
  (* Customer routes: climb provider edges from d. *)
  let q = Queue.create () in
  cust.(d) <- 0;
  Queue.push d q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    List.iter
      (fun p ->
        if cust.(p) = inf then begin
          cust.(p) <- cust.(x) + 1;
          Queue.push p q
        end)
      (Asgraph.providers g x)
  done;
  (* Peer routes: one peer hop onto a customer route. *)
  for x = 0 to n - 1 do
    List.iter
      (fun p -> if cust.(p) <> inf && cust.(p) + 1 < peer.(x) then peer.(x) <- cust.(p) + 1)
      (Asgraph.peers g x)
  done;
  (* Provider routes: providers-first order so a provider's selected route
     is final before its customers read it.  A provider exports only the
     route it selected: customer, then peer, then provider. *)
  Array.iter
    (fun x ->
      let best_x =
        if cust.(x) <> inf then cust.(x) else if peer.(x) <> inf then peer.(x) else prov.(x)
      in
      if best_x <> inf then
        List.iter
          (fun c -> if best_x + 1 < prov.(c) then prov.(c) <- best_x + 1)
          (Asgraph.customers g x))
    (Asgraph.topo_order g);
  { cust; peer; prov }

(* The selected route at [src]: its local-pref class and length. *)
let reference_route tb ~src ~dst =
  if src = dst then Some (`Customer, 0)
  else if tb.cust.(src) <> inf then Some (`Customer, tb.cust.(src))
  else if tb.peer.(src) <> inf then Some (`Peer, tb.peer.(src))
  else if tb.prov.(src) <> inf then Some (`Provider, tb.prov.(src))
  else None

let reference_class g ~src ~dst =
  Option.map fst (reference_route (reference_tables g dst) ~src ~dst)

let test_policy_customer_route () =
  let p = Policy.create (toy ()) in
  (* 1 -> 3 is a pure customer route of length 1. *)
  Alcotest.(check (option int)) "1->3" (Some 1) (Policy.bgp_distance p ~src:1 ~dst:3);
  Alcotest.(check bool) "class customer" true
    (reference_class (toy ()) ~src:1 ~dst:3 = Some `Customer)

let test_policy_peer_route () =
  let p = Policy.create (toy ()) in
  (* 1 -> 5: peer hop to 2 then down; length 2; class Peer. *)
  Alcotest.(check (option int)) "1->5" (Some 2) (Policy.bgp_distance p ~src:1 ~dst:5);
  Alcotest.(check bool) "class peer" true
    (reference_class (toy ()) ~src:1 ~dst:5 = Some `Peer)

let test_policy_provider_route () =
  let p = Policy.create (toy ()) in
  (* 3 -> 4: up to 1 then down: provider route of length 2. *)
  Alcotest.(check (option int)) "3->4" (Some 2) (Policy.bgp_distance p ~src:3 ~dst:4);
  Alcotest.(check bool) "class provider" true
    (reference_class (toy ()) ~src:3 ~dst:4 = Some `Provider);
  (* 3 -> 5 goes up to 1, peer to 2, down to 5 (valley-free, length 3). *)
  Alcotest.(check (option int)) "3->5" (Some 3) (Policy.bgp_distance p ~src:3 ~dst:5)

let test_policy_self () =
  let p = Policy.create (toy ()) in
  Alcotest.(check (option int)) "self" (Some 0) (Policy.bgp_distance p ~src:3 ~dst:3)

(* Every (src, dst) pair of [g], destination-major, against the reference
   tables; the first disagreement, if any. *)
let bgp_disagreement g =
  let p = Policy.create g in
  let n = Asgraph.n g in
  let found = ref None in
  for dst = 0 to n - 1 do
    if !found = None then begin
      let tb = reference_tables g dst in
      for src = 0 to n - 1 do
        let want = Option.map snd (reference_route tb ~src ~dst) in
        let got = Policy.bgp_distance p ~src ~dst in
        if got <> want && !found = None then found := Some (src, dst, got, want)
      done
    end
  done;
  !found

let show_disagreement (src, dst, got, want) =
  let s = function Some d -> string_of_int d | None -> "none" in
  Printf.sprintf "%d->%d: kernel %s, tables %s" src dst (s got) (s want)

let prop_bgp_matches_tables =
  QCheck.Test.make ~name:"bgp_distance = per-destination tables" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let inet = Internet.generate (Prng.create seed) Internet.small_params in
      match bgp_disagreement inet.Internet.graph with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "seed %d: %s" seed (show_disagreement d))

(* A provider whose peer route is shorter than its customer route:
       1 -> 0 == 5          0 reaches 4 down 0-2-3-4 (customer route, 3)
            |    \         or over its peer 5 (peer route, 2).  0 selects
            2     |         the customer route and exports only that one,
            |     |         so 1's provider route to 4 is 4, not 3.
            3     |
             \    |
               4 -'      (no pair of the generated Internets above needs this) *)
let test_bgp_peer_shortcut () =
  let g = Asgraph.create 6 in
  Asgraph.add_provider g ~customer:1 ~provider:0;
  Asgraph.add_provider g ~customer:2 ~provider:0;
  Asgraph.add_provider g ~customer:3 ~provider:2;
  Asgraph.add_provider g ~customer:4 ~provider:3;
  Asgraph.add_provider g ~customer:4 ~provider:5;
  Asgraph.add_peer g 0 5;
  Alcotest.(check (option int)) "1->4" (Some 4)
    (Policy.bgp_distance (Policy.create g) ~src:1 ~dst:4);
  match bgp_disagreement g with
  | None -> ()
  | Some d -> Alcotest.fail (show_disagreement d)

let test_bgp_all_pairs_default () =
  let inet = Internet.generate (Prng.create 4) Internet.default_params in
  match bgp_disagreement inet.Internet.graph with
  | None -> ()
  | Some d -> Alcotest.fail (show_disagreement d)

let test_policy_shortest () =
  let p = Policy.create (toy ()) in
  Alcotest.(check (option int)) "shortest 3->5" (Some 3) (Policy.shortest_distance p ~src:3 ~dst:5);
  Alcotest.(check (option int)) "shortest self" (Some 0) (Policy.shortest_distance p ~src:3 ~dst:3)

let test_vf_distance_within () =
  let p = Policy.create (toy ()) in
  (* Within cone(1): 3 -> 4 = 2. *)
  Alcotest.(check (option int)) "3->4 in cone(1)" (Some 2)
    (Policy.vf_distance_within p ~root:(Some 1) 3 4);
  (* 3 -> 5 impossible inside cone(1). *)
  Alcotest.(check (option int)) "3->5 not in cone(1)" None
    (Policy.vf_distance_within p ~root:(Some 1) 3 5);
  (* Unrestricted: peer path length 3. *)
  Alcotest.(check (option int)) "3->5 unrestricted" (Some 3)
    (Policy.vf_distance_within p ~root:None 3 5);
  (* Blocked relay AS cuts the route. *)
  Alcotest.(check (option int)) "3->4 with 1 blocked" None
    (Policy.vf_distance_within p ~root:None ~blocked:(fun a -> a = 1) 3 4)

let test_up_distances () =
  let p = Policy.create (toy ()) in
  Alcotest.(check (list (pair int int))) "up distances of 3" [ (3, 0); (1, 1); (0, 2) ]
    (Policy.up_distances p 3)

(* ---------- Internet generator ---------- *)

let test_internet_valid () =
  List.iter
    (fun seed ->
      let inet = Internet.generate (Prng.create seed) Internet.small_params in
      let g = inet.Internet.graph in
      (match Asgraph.validate g with
       | Ok () -> ()
       | Error e -> Alcotest.failf "invalid hierarchy: %s" e);
      (* Every non-tier-1 AS reaches a tier-1 by climbing. *)
      let t1s = Asgraph.tier1s g in
      for a = 0 to Asgraph.n g - 1 do
        let ups = Asgraph.up_hierarchy g a in
        Alcotest.(check bool)
          (Printf.sprintf "AS%d reaches tier-1" a)
          true
          (List.exists (fun u -> List.mem u t1s) ups)
      done)
    [ 1; 2; 3 ]

let test_internet_structure () =
  let inet = Internet.generate (Prng.create 4) Internet.default_params in
  let g = inet.Internet.graph in
  Alcotest.(check int) "total size" 1100 (Asgraph.n g);
  Alcotest.(check int) "tier1 count" 10 (List.length (Asgraph.tier1s g));
  Alcotest.(check int) "stub count" 750 (List.length (Internet.stubs inet));
  (* Stubs have no customers. *)
  List.iter
    (fun s -> Alcotest.(check (list int)) "stub childless" [] (Asgraph.customers g s))
    (Internet.stubs inet);
  (* Some multihoming exists. *)
  let multi = List.filter (Asgraph.multihomed g) (Internet.stubs inet) in
  Alcotest.(check bool) "some stubs multihomed" true (List.length multi > 50)

let test_internet_policy_reachability () =
  let inet = Internet.generate (Prng.create 5) Internet.small_params in
  let p = Policy.create inet.Internet.graph in
  let rng = Prng.create 6 in
  let n = Asgraph.n inet.Internet.graph in
  for _ = 1 to 200 do
    let a = Prng.int rng n and b = Prng.int rng n in
    match Policy.bgp_distance p ~src:a ~dst:b with
    | Some d -> Alcotest.(check bool) "distance sane" true (d >= 0 && d < n)
    | None -> Alcotest.failf "no policy route %d->%d" a b
  done

let test_bgp_at_least_shortest () =
  let inet = Internet.generate (Prng.create 7) Internet.small_params in
  let p = Policy.create inet.Internet.graph in
  let rng = Prng.create 8 in
  let n = Asgraph.n inet.Internet.graph in
  for _ = 1 to 200 do
    let a = Prng.int rng n and b = Prng.int rng n in
    match (Policy.bgp_distance p ~src:a ~dst:b, Policy.shortest_distance p ~src:a ~dst:b) with
    | Some bgp, Some sp ->
      Alcotest.(check bool) "policy path >= shortest" true (bgp >= sp)
    | _ -> ()
  done

let () =
  Alcotest.run "rofl_asgraph"
    [
      ( "asgraph",
        [
          Alcotest.test_case "relationships" `Quick test_basic_relationships;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate cycle" `Quick test_validate_cycle;
          Alcotest.test_case "cones" `Quick test_cones;
          Alcotest.test_case "up-hierarchy" `Quick test_up_hierarchy;
          Alcotest.test_case "tier1 and LCA" `Quick test_tier1s_lca;
          Alcotest.test_case "derived tables invalidated" `Quick test_derived_invalidated;
          Alcotest.test_case "derived tables shared across domains" `Quick
            test_derived_shared_across_domains;
          Alcotest.test_case "up-hierarchy edges" `Quick test_edges_in_up_hierarchy;
          Alcotest.test_case "topo order" `Quick test_topo_order;
        ] );
      ( "policy",
        [
          Alcotest.test_case "customer route" `Quick test_policy_customer_route;
          Alcotest.test_case "peer route" `Quick test_policy_peer_route;
          Alcotest.test_case "provider route" `Quick test_policy_provider_route;
          Alcotest.test_case "self" `Quick test_policy_self;
          QCheck_alcotest.to_alcotest prop_bgp_matches_tables;
          Alcotest.test_case "bgp = tables, peer shortcut" `Quick test_bgp_peer_shortcut;
          Alcotest.test_case "bgp = tables, all pairs, default Internet" `Quick
            test_bgp_all_pairs_default;
          Alcotest.test_case "shortest" `Quick test_policy_shortest;
          Alcotest.test_case "vf within cone" `Quick test_vf_distance_within;
          Alcotest.test_case "up distances" `Quick test_up_distances;
        ] );
      ( "internet",
        [
          Alcotest.test_case "valid hierarchies" `Quick test_internet_valid;
          Alcotest.test_case "structure" `Quick test_internet_structure;
          Alcotest.test_case "policy reachability" `Quick test_internet_policy_reachability;
          Alcotest.test_case "bgp >= shortest" `Quick test_bgp_at_least_shortest;
        ] );
    ]
