(* Interdomain ROFL tests: levels, Canon joins, strategies, routing with
   isolation, peering modes, caches, stub failures. *)

module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Prng = Rofl_util.Prng
module Asgraph = Rofl_asgraph.Asgraph
module Internet = Rofl_asgraph.Internet
module Level = Rofl_inter.Level
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Asfailure = Rofl_inter.Asfailure

(* The toy hierarchy from test_asgraph, plus multihoming:
     0 (tier-1)        5 is also a customer of 1 (multihomed)
    / \
   1   2    1--2 peer
  /|    \
 3 4     5                                     *)
let toy () =
  let g = Asgraph.create 6 in
  Asgraph.add_provider g ~customer:1 ~provider:0;
  Asgraph.add_provider g ~customer:2 ~provider:0;
  Asgraph.add_provider g ~customer:3 ~provider:1;
  Asgraph.add_provider g ~customer:4 ~provider:1;
  Asgraph.add_provider g ~customer:5 ~provider:2;
  Asgraph.add_provider g ~customer:5 ~provider:1;
  Asgraph.add_peer g 1 2;
  g

let toy_net ?cfg seed =
  let rng = Prng.create seed in
  (Net.create ?cfg ~rng (toy ()), rng)

let small_internet ?cfg seed =
  let rng = Prng.create seed in
  let inet = Internet.generate rng Internet.small_params in
  (Net.create ?cfg ~rng inet.Internet.graph, inet, rng)

let populate net rng inet n strategy =
  let stubs = Array.of_list (Internet.stubs inet) in
  List.init n (fun _ ->
      let s = stubs.(Prng.int rng (Array.length stubs)) in
      (Net.join net ~as_idx:s ~strategy).Net.host)

(* ---------- Level ---------- *)

let test_level_membership () =
  let ctx = Level.make_ctx (toy ()) in
  Alcotest.(check bool) "root holds all" true (Level.member ctx Level.Root 5);
  Alcotest.(check bool) "3 under 1" true (Level.member ctx (Level.Real 1) 3);
  Alcotest.(check bool) "5 under 1 (multihomed)" true (Level.member ctx (Level.Real 1) 5);
  Alcotest.(check bool) "3 not under 2" false (Level.member ctx (Level.Real 2) 3)

let test_level_vas () =
  let ctx = Level.make_ctx (toy ()) in
  Alcotest.(check int) "one virtual AS (peer 1-2)" 1 (Level.vas_count ctx);
  Alcotest.(check (list int)) "members" [ 1; 2 ] (List.sort compare (Level.vas_members ctx 0))

let test_level_up_distance () =
  let ctx = Level.make_ctx (toy ()) in
  Alcotest.(check (option int)) "3 to 1" (Some 1) (Level.up_distance ctx 3 1);
  Alcotest.(check (option int)) "3 to 0" (Some 2) (Level.up_distance ctx 3 0);
  Alcotest.(check (option int)) "3 to 2" None (Level.up_distance ctx 3 2)

(* [Level.route_within] with the path its scratch holds read out as a
   list; [None] when the level does not connect the two. *)
let route_list ctx level src dst =
  let d = Level.route_within ctx level src dst in
  if d < 0 then None else Some (d, List.init (Level.path_length ctx) (Level.path_hop ctx))

let distance_opt d = if d < 0 then None else Some d

let test_level_route_within () =
  let ctx = Level.make_ctx (toy ()) in
  (match route_list ctx (Level.Real 1) 3 4 with
   | Some (2, [ 3; 1; 4 ]) -> ()
   | Some (d, p) ->
     Alcotest.failf "unexpected: %d hops via %s" d
       (String.concat "," (List.map string_of_int p))
   | None -> Alcotest.fail "no route");
  Alcotest.(check int) "a disconnected level leaves no path" (-1)
    (Level.route_within ctx (Level.Real 2) 3 5);
  Alcotest.(check int) "empty path" 0 (Level.path_length ctx);
  Alcotest.(check (option int)) "3->5 inside cone(1) (multihoming)" (Some 2)
    (distance_opt (Level.distance_within ctx (Level.Real 1) 3 5));
  Alcotest.(check (option int)) "3->5 blocked in cone(2)" None
    (distance_opt (Level.distance_within ctx (Level.Real 2) 3 5));
  (* Peer-group level: 3 -> 5 may cross the 1-2 peering link. *)
  Alcotest.(check (option int)) "peer-group route" (Some 2)
    (distance_opt (Level.distance_within ctx (Level.Peer_group 0) 3 5))

let test_level_chains () =
  let ctx = Level.make_ctx (toy ()) in
  (* up-hierarchy of 5 = {5, 1, 2, 0} plus Root. *)
  Alcotest.(check int) "multihomed real levels + root" 5
    (List.length (Level.levels_for_real ctx 5));
  (match Level.single_homed_chain ctx 5 with
   | [ Level.Real 5; Level.Real 1; Level.Real 0; Level.Root ] -> ()
   | ls -> Alcotest.failf "chain: %s" (String.concat "," (List.map Level.to_string ls)));
  Alcotest.(check int) "peer levels of 3" 1 (List.length (Level.peer_levels ctx 3))

let test_level_subsumes () =
  let ctx = Level.make_ctx (toy ()) in
  Alcotest.(check bool) "root subsumes all" true
    (Level.subsumes ctx ~outer:Level.Root ~inner:(Level.Real 1));
  Alcotest.(check bool) "1 subsumes 3" true
    (Level.subsumes ctx ~outer:(Level.Real 1) ~inner:(Level.Real 3));
  Alcotest.(check bool) "1 does not subsume 2" false
    (Level.subsumes ctx ~outer:(Level.Real 1) ~inner:(Level.Real 2));
  Alcotest.(check bool) "nothing subsumes root" false
    (Level.subsumes ctx ~outer:(Level.Real 0) ~inner:Level.Root)

(* ---------- Level kernel vs the hashtable reference ---------- *)

(* [climb], [climb_path] and [route_within] over hash-table climbs, as
   they were before the climb tables were flattened into arrays (only the
   memo moved into this module's own ctx), as the oracle for the flat
   kernel.  The first equal-cost peak [route_within] offers wins, so the
   order it scans a climb in decides ties: both scan it in breadth-first
   discovery order, which this climb records beside its table. *)
module Reference = struct
  type ctx = {
    lctx : Level.ctx;
    g : Asgraph.t;
    climbs : (int, (int, int) Hashtbl.t * int list) Hashtbl.t;
  }

  let make lctx = { lctx; g = Level.graph lctx; climbs = Hashtbl.create 256 }

  let member ctx level a = Level.member ctx.lctx level a

  let climb ctx x =
    match Hashtbl.find_opt ctx.climbs x with
    | Some c -> c
    | None ->
      let tbl = Hashtbl.create 32 in
      let q = Queue.create () and order = ref [ x ] in
      Hashtbl.replace tbl x 0;
      Queue.push x q;
      while not (Queue.is_empty q) do
        let cur = Queue.pop q in
        let d = Hashtbl.find tbl cur in
        List.iter
          (fun p ->
            if not (Hashtbl.mem tbl p) then begin
              Hashtbl.replace tbl p (d + 1);
              order := p :: !order;
              Queue.push p q
            end)
          (Asgraph.providers ctx.g cur)
      done;
      let c = (tbl, List.rev !order) in
      Hashtbl.add ctx.climbs x c;
      c

  let up_distance ctx x a = Hashtbl.find_opt (fst (climb ctx x)) a

  (* Inclusive provider-edge path from [x] up to its ancestor [a]. *)
  let rec climb_path ctx x a =
    if x = a then [ x ]
    else begin
      let da =
        match up_distance ctx x a with
        | Some d -> d
        | None -> invalid_arg "Level.climb_path: not an ancestor"
      in
      let next =
        List.find_opt
          (fun p -> match up_distance ctx p a with Some d -> d = da - 1 | None -> false)
          (Asgraph.providers ctx.g x)
      in
      match next with
      | Some p -> x :: climb_path ctx p a
      | None -> invalid_arg "Level.climb_path: broken climb"
    end

  let route_within ctx level src dst =
    if src = dst then (if member ctx level src then Some (0, [ src ]) else None)
    else begin
      let allowed a = member ctx level a in
      if not (allowed src && allowed dst) then None
      else begin
        let up_src, src_order = climb ctx src and up_dst, _ = climb ctx dst in
        (* (cost, peak_src, peer option) *)
        let best = ref None in
        let offer cost a peer =
          match !best with
          | Some (c, _, _) when c <= cost -> ()
          | Some _ | None -> best := Some (cost, a, peer)
        in
        List.iter
          (fun a ->
            let da = Hashtbl.find up_src a in
            if allowed a then begin
              (match Hashtbl.find_opt up_dst a with
               | Some db -> offer (da + db) a None
               | None -> ());
              List.iter
                (fun p ->
                  if allowed p then begin
                    match Hashtbl.find_opt up_dst p with
                    | Some db -> offer (da + 1 + db) a (Some p)
                    | None -> ()
                  end)
                (Asgraph.peers ctx.g a)
            end)
          src_order;
        match !best with
        | None -> None
        | Some (cost, peak, peer) ->
          let up_part = climb_path ctx src peak in
          let down_from b = List.rev (climb_path ctx dst b) in
          let path =
            match peer with
            | None -> up_part @ List.tl (List.rev (climb_path ctx dst peak))
            | Some p -> up_part @ down_from p
          in
          Some (cost, path)
      end
    end

  (* Cone sizes and up-hierarchies recomputed from the cones themselves. *)
  let cone_size g a = Rofl_util.Bitset.cardinal (Asgraph.customer_cone g a)

  let by_cone g a b =
    let c = compare (cone_size g a) (cone_size g b) in
    if c <> 0 then c else compare a b

  let up_hierarchy g x =
    List.init (Asgraph.n g) Fun.id
    |> List.filter (fun a -> Asgraph.in_cone g ~root:a x)
    |> List.sort (by_cone g)

  let levels_for_real g x =
    List.map (fun a -> Level.Real a) (up_hierarchy g x) @ [ Level.Root ]
end

(* Two tier-1s and a diamond of equal-cost peaks: 5 and 6 both sit under 2
   and 3, 7 under 3 and 4, and peer links 2-4, 5-7 and 6-8 offer peer
   crossings that tie with climbs; 8 also has a backup link to 3. *)
let diamond () =
  let g = Asgraph.create 10 in
  Asgraph.add_peer g 0 1;
  List.iter
    (fun (customer, provider) -> Asgraph.add_provider g ~customer ~provider)
    [ (2, 0); (3, 0); (3, 1); (4, 1); (5, 2); (5, 3); (6, 2); (6, 3); (7, 3); (7, 4);
      (8, 4); (9, 2); (9, 4) ];
  List.iter (fun (a, b) -> Asgraph.add_peer g a b) [ (2, 4); (5, 7); (6, 8) ];
  Asgraph.add_backup g ~customer:8 ~provider:3;
  g

(* A small random Internet (peers and backups included), or the diamond. *)
let kernel_graph seed =
  if seed mod 5 = 0 then diamond ()
  else begin
    let rng = Prng.create seed in
    let params =
      {
        Internet.n_tier1 = Prng.int_in rng 2 4;
        n_tier2 = Prng.int rng 7;
        n_tier3 = Prng.int rng 11;
        n_stub = Prng.int_in rng 2 24;
        multihome_fraction = Prng.float rng 0.9;
        peer_fraction = Prng.float rng 0.6;
        backup_fraction = Prng.float rng 0.5;
      }
    in
    (Internet.generate rng params).Internet.graph
  end

let show_route = function
  | None -> "none"
  | Some (d, path) -> Printf.sprintf "%d via %s" d (String.concat "," (List.map string_of_int path))

let prop_level_kernel_matches_reference =
  QCheck.Test.make ~name:"Level kernel = hashtable reference" ~count:200
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let g = kernel_graph seed in
      let n = Asgraph.n g in
      let ctx = Level.make_ctx g in
      let r = Reference.make ctx in
      let rng = Prng.create (seed + 1) in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "seed %d: %s" seed s) fmt in
      for x = 0 to n - 1 do
        if Asgraph.up_hierarchy g x <> Reference.up_hierarchy g x then fail "up_hierarchy %d" x;
        if Asgraph.cone_size g x <> Reference.cone_size g x then fail "cone_size %d" x
      done;
      let level () =
        match Prng.int rng 3 with
        | 0 -> Level.Root
        | 1 when Level.vas_count ctx > 0 -> Level.Peer_group (Prng.int rng (Level.vas_count ctx))
        | _ -> Level.Real (Prng.int rng n)
      in
      (* Interleave queries so both memos fill in the same random order. *)
      for _ = 1 to 300 do
        match Prng.int rng 3 with
        | 0 ->
          let x = Prng.int rng n and a = Prng.int rng n in
          if Level.up_distance ctx x a <> Reference.up_distance r x a then
            fail "up_distance %d %d" x a
        | 1 ->
          let x = Prng.int rng n in
          if Level.levels_for_real ctx x <> Reference.levels_for_real g x then
            fail "levels_for_real %d" x
        | _ ->
          let l = level () and src = Prng.int rng n and dst = Prng.int rng n in
          let got = route_list ctx l src dst
          and want = Reference.route_within r l src dst in
          if got <> want then
            fail "route_within %s %d %d: %s, reference %s" (Level.to_string l) src dst
              (show_route got) (show_route want)
      done;
      true)

(* A join prices its reply leg as the request's count, and its successor
   notification and teardown without building a path.  Both rest on this:
   at every level of a random pair, [distance_within] is symmetric and is
   the cost of [route_within].  Every tenth seed runs on the default
   Internet instead of a small random one. *)
let prop_distance_within_symmetric =
  QCheck.Test.make ~name:"distance_within symmetric, = route_within cost" ~count:100
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let g =
        if seed mod 10 = 1 then
          (Internet.generate (Prng.create seed) Internet.default_params).Internet.graph
        else kernel_graph seed
      in
      let n = Asgraph.n g in
      let ctx = Level.make_ctx g in
      let rng = Prng.create (seed + 2) in
      let show = function None -> "none" | Some d -> string_of_int d in
      for _ = 1 to 40 do
        let a = Prng.int rng n and b = Prng.int rng n in
        let levels =
          Level.levels_for_real ctx a @ Level.levels_for_real ctx b @ Level.peer_levels ctx a
          @ Level.peer_levels ctx b
        in
        List.iter
          (fun l ->
            let ab = distance_opt (Level.distance_within ctx l a b)
            and ba = distance_opt (Level.distance_within ctx l b a) in
            let cost = Option.map fst (route_list ctx l a b) in
            if ab <> ba || ab <> cost then
              QCheck.Test.fail_reportf "seed %d, %s %d %d: %s one way, %s back, route %s" seed
                (Level.to_string l) a b (show ab) (show ba) (show cost))
          levels
      done;
      true)

(* ---------- joins ---------- *)

let test_join_registers_everywhere () =
  let net, _rng = toy_net 1 in
  (match Net.join_id net ~as_idx:3 ~id:(Id.of_int 100) ~strategy:Net.Multihomed with
   | Ok o ->
     Alcotest.(check bool) "charged" true (o.Net.lookup_msgs > 0);
     (* Member of every level of its up-hierarchy. *)
     List.iter
       (fun level ->
         Alcotest.(check bool)
           (Level.to_string level ^ " ring contains id")
           true
           (Ring.mem (Id.of_int 100) (Net.ring net level)))
       [ Level.Real 3; Level.Real 1; Level.Root ]
   | Error e -> Alcotest.failf "join failed: %s" e)

let test_join_ephemeral_root_only () =
  let net, _ = toy_net 2 in
  (match Net.join_id net ~as_idx:3 ~id:(Id.of_int 50) ~strategy:Net.Ephemeral with
   | Ok _ ->
     Alcotest.(check bool) "in root ring" true (Ring.mem (Id.of_int 50) (Net.ring net Level.Root));
     Alcotest.(check bool) "not in AS ring" false
       (Ring.mem (Id.of_int 50) (Net.ring net (Level.Real 3)))
   | Error e -> Alcotest.failf "join failed: %s" e)

let test_join_duplicate_rejected () =
  let net, _ = toy_net 3 in
  (match Net.join_id net ~as_idx:3 ~id:(Id.of_int 7) ~strategy:Net.Ephemeral with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first join: %s" e);
  match Net.join_id net ~as_idx:4 ~id:(Id.of_int 7) ~strategy:Net.Ephemeral with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate accepted"

(* Join costs by strategy, paired: each pair joins one identifier at one
   stub under every strategy into the same network, removing it after each
   join, so the strategies differ in nothing but their level sets.  On
   every pair, an ephemeral join (Root only) costs less than a single-homed
   one and a multihomed join no more than a peering one, whose level set
   is a superset.  Single-homed against multihomed is not ordered per pair:
   the multihomed set is larger, but deduplication can make it cheaper.
   On the default Internet fig8a measures, the multihomed join costs more
   on average, as in the paper. *)
let paired_join_costs params ~hosts ~pairs =
  let rng = Prng.create 4 in
  let inet = Internet.generate rng params in
  let net = Net.create ~rng inet.Internet.graph in
  let _ = populate net rng inet hosts Net.Multihomed in
  let stubs = Array.of_list (Internet.stubs inet) in
  List.init pairs (fun _ ->
      let as_idx = Prng.sample rng stubs and id = Id.random rng in
      let cost strategy =
        match Net.join_id net ~as_idx ~id ~strategy with
        | Ok o ->
          ignore (Net.remove_host net id);
          o.Net.lookup_msgs
        | Error e -> Alcotest.fail e
      in
      (cost Net.Ephemeral, cost Net.Single_homed, cost Net.Multihomed, cost Net.Peering))

let test_join_cost_ordering () =
  let per_pair name costs =
    List.iter
      (fun (eph, single, multi, peering) ->
        if not (eph < single && multi <= peering) then
          Alcotest.failf "%s: ephemeral %d, single %d, multi %d, peering %d" name eph single
            multi peering)
      costs
  in
  per_pair "small Internet"
    (paired_join_costs Internet.small_params ~hosts:600 ~pairs:100);
  let costs = paired_join_costs Internet.default_params ~hosts:1000 ~pairs:100 in
  per_pair "default Internet" costs;
  let mean f = Rofl_util.Stats.mean (List.map (fun c -> float_of_int (f c)) costs) in
  let single = mean (fun (_, s, _, _) -> s) and multi = mean (fun (_, _, m, _) -> m) in
  Alcotest.(check bool)
    (Printf.sprintf "default Internet: single %.1f < multi %.1f" single multi)
    true (single < multi)

let test_dedup_reduces_join_cost () =
  let run dedup =
    let cfg = { Net.default_config with Net.dedup_lookups = dedup } in
    let net, inet, rng = small_internet ~cfg 5 in
    let _ = populate net rng inet 300 Net.Multihomed in
    let samples =
      List.init 50 (fun _ ->
          let stubs = Array.of_list (Internet.stubs inet) in
          let s = stubs.(Prng.int rng (Array.length stubs)) in
          float_of_int (Net.join net ~as_idx:s ~strategy:Net.Multihomed).Net.lookup_msgs)
    in
    Rofl_util.Stats.mean samples
  in
  let with_dedup = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "dedup %.0f < no dedup %.0f" with_dedup without)
    true (with_dedup < without)

let test_fingers_acquired () =
  let cfg = { Net.default_config with Net.finger_budget = 30 } in
  let net, inet, rng = small_internet ~cfg 6 in
  let _ = populate net rng inet 400 Net.Multihomed in
  let o =
    Net.join net
      ~as_idx:(List.hd (Internet.stubs inet))
      ~strategy:Net.Multihomed
  in
  Alcotest.(check bool) "some fingers" true (List.length o.Net.host.Net.fingers > 0);
  Alcotest.(check bool) "within budget" true (List.length o.Net.host.Net.fingers <= 30);
  Alcotest.(check int) "one message per finger" (List.length o.Net.host.Net.fingers)
    o.Net.finger_msgs

let test_remove_host () =
  let net, inet, rng = small_internet 8 in
  let hosts = populate net rng inet 50 Net.Multihomed in
  let victim = List.hd hosts in
  let msgs = Net.remove_host net victim.Net.id in
  Alcotest.(check bool) "teardown charged" true (msgs > 0);
  Alcotest.(check bool) "gone" true (Net.locate net victim.Net.id = None);
  Alcotest.(check bool) "out of root ring" false
    (Ring.mem victim.Net.id (Net.ring net Level.Root))

(* ---------- routing ---------- *)

let test_route_delivers () =
  let net, inet, rng = small_internet 9 in
  let hosts = Array.of_list (populate net rng inet 300 Net.Multihomed) in
  for _ = 1 to 200 do
    let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
    let r = Route.route_from net ~src:a ~dst:b.Net.id in
    Alcotest.(check bool) "delivered" true r.Route.delivered
  done

let test_route_same_as_zero_hops () =
  let net, _ = toy_net 10 in
  ignore (Net.join_id net ~as_idx:3 ~id:(Id.of_int 10) ~strategy:Net.Multihomed);
  ignore (Net.join_id net ~as_idx:3 ~id:(Id.of_int 20) ~strategy:Net.Multihomed);
  (match Hashtbl.find_opt net.Net.hosts (Id.of_int 10) with
   | Some src ->
     let r = Route.route_from net ~src ~dst:(Id.of_int 20) in
     Alcotest.(check bool) "delivered" true r.Route.delivered;
     Alcotest.(check int) "zero AS hops" 0 r.Route.as_hops
   | None -> Alcotest.fail "host missing")

let test_isolation_property () =
  let net, inet, rng = small_internet 11 in
  let hosts = Array.of_list (populate net rng inet 400 Net.Multihomed) in
  for _ = 1 to 300 do
    let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
    let r = Route.route_from net ~src:a ~dst:b.Net.id in
    if r.Route.delivered then
      Alcotest.(check bool) "isolation" true
        (Route.isolation_respected net r ~src:a ~dst:b.Net.id)
  done

let test_fingers_reduce_stretch () =
  let measure budget =
    let cfg = { Net.default_config with Net.finger_budget = budget } in
    let net, inet, rng = small_internet ~cfg 12 in
    let hosts = Array.of_list (populate net rng inet 500 Net.Multihomed) in
    let total = ref 0.0 and n = ref 0 in
    for _ = 1 to 250 do
      let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
      match Route.stretch_vs_bgp net ~src:a ~dst:b.Net.id with
      | Some s ->
        total := !total +. s;
        incr n
      | None -> ()
    done;
    !total /. float_of_int !n
  in
  let s0 = measure 0 and s60 = measure 60 in
  Alcotest.(check bool)
    (Printf.sprintf "fingers help: %.2f (0) vs %.2f (60)" s0 s60)
    true (s60 < s0)

let test_cache_shortcut () =
  let cfg = { Net.default_config with Net.cache_capacity = 256 } in
  let net, inet, rng = small_internet ~cfg 13 in
  let hosts = Array.of_list (populate net rng inet 400 Net.Multihomed) in
  let cache_hits = ref 0 in
  for _ = 1 to 300 do
    let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
    let r = Route.route_from net ~src:a ~dst:b.Net.id in
    Alcotest.(check bool) "delivered" true r.Route.delivered;
    cache_hits := !cache_hits + r.Route.cache_hops
  done;
  Alcotest.(check bool) "caches used" true (!cache_hits > 0)

let test_bloom_peering_backtracks () =
  let cfg =
    { Net.default_config with Net.peering_mode = Net.Bloom_filters; Net.bloom_fpr = 0.3 }
  in
  let net, inet, rng = small_internet ~cfg 14 in
  let hosts = Array.of_list (populate net rng inet 400 Net.Peering) in
  let crossings = ref 0 and backtracks = ref 0 in
  for _ = 1 to 400 do
    let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
    let r = Route.route_from net ~src:a ~dst:b.Net.id in
    Alcotest.(check bool) "delivered despite FPs" true r.Route.delivered;
    crossings := !crossings + r.Route.peer_crossings;
    backtracks := !backtracks + r.Route.backtracks
  done;
  Alcotest.(check bool) "peer links crossed" true (!crossings > 0);
  Alcotest.(check bool) "false positives backtracked" true (!backtracks > 0)

let test_bloom_state_accounted () =
  let cfg = { Net.default_config with Net.peering_mode = Net.Bloom_filters } in
  let net, inet, rng = small_internet ~cfg 15 in
  let _ = populate net rng inet 100 Net.Multihomed in
  let t1 = List.hd (Asgraph.tier1s inet.Internet.graph) in
  Alcotest.(check bool) "tier-1 bloom nonempty" true (Net.bloom_state_bits net t1 > 0.0)

(* ---------- invariants ---------- *)

module Inv = Rofl_inter.Interinvariant

let test_invariants_steady_state () =
  let net, inet, rng = small_internet 20 in
  let _ = populate net rng inet 300 Net.Multihomed in
  let _ = populate net rng inet 50 Net.Ephemeral in
  let _ = populate net rng inet 50 Net.Single_homed in
  let r = Inv.check net in
  if not r.Inv.ok then
    Alcotest.failf "%d violations, e.g. %s"
      (List.length r.Inv.violations)
      (List.hd r.Inv.violations);
  Alcotest.(check int) "all hosts checked" 400 r.Inv.hosts_checked;
  let rr = Inv.check_routability net ~samples:150 in
  Alcotest.(check bool) "routable with isolation" true rr.Inv.ok

let test_invariants_after_churn () =
  let cfg = { Net.default_config with Net.finger_budget = 20 } in
  let net, inet, rng = small_internet ~cfg 21 in
  let hosts = populate net rng inet 200 Net.Multihomed in
  (* Remove a third, fail a stub, add more. *)
  List.iteri (fun i h -> if i mod 3 = 0 then ignore (Net.remove_host net h.Net.id)) hosts;
  let victim =
    List.find (fun s -> Ring.cardinal net.Net.resident_rings.(s) > 0) (Internet.stubs inet)
  in
  ignore (Asfailure.fail_stub net victim ~samples:0);
  Asfailure.restore_as net victim;
  let _ = populate net rng inet 100 Net.Peering in
  let r = Inv.check net in
  if not r.Inv.ok then
    Alcotest.failf "%d violations, e.g. %s"
      (List.length r.Inv.violations)
      (List.hd r.Inv.violations);
  let rr = Inv.check_routability net ~samples:150 in
  Alcotest.(check bool) "routable after churn" true rr.Inv.ok

(* Random joins, graceful removals and stub failures, in bloom-filter or
   virtual-AS peering mode by seed parity: [check] stays green after every
   step.  Its ring checks pin the equivalence the walk relies on — a ring
   holds an identifier exactly when the identifier's host joined the
   ring's level. *)
let prop_invariant_under_churn =
  QCheck.Test.make ~name:"check stays green under join/remove/fail_stub" ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let peering_mode = if seed mod 2 = 0 then Net.Bloom_filters else Net.Virtual_as in
      let cfg =
        { Net.default_config with Net.peering_mode; finger_budget = 4; cache_capacity = 8 }
      in
      let net, inet, rng = small_internet ~cfg seed in
      let stubs = Array.of_list (Internet.stubs inet) in
      let strategies = [| Net.Peering; Net.Multihomed; Net.Ephemeral |] in
      let ids = ref [] in
      let step () =
        match Prng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
          let as_idx = Prng.sample rng stubs and strategy = Prng.sample rng strategies in
          ids := (Net.join net ~as_idx ~strategy).Net.host.Net.id :: !ids;
          "join"
        | 6 | 7 | 8 ->
          (match !ids with
           | [] -> ()
           | l -> ignore (Net.remove_host net (List.nth l (Prng.int rng (List.length l)))));
          "remove_host"
        | _ ->
          let victim = Prng.sample rng stubs in
          ignore (Asfailure.fail_stub net victim ~samples:0);
          Asfailure.restore_as net victim;
          "fail_stub"
      in
      let rec go i =
        i = 60
        ||
        let what = step () in
        let r = Inv.check net in
        if r.Inv.ok then go (i + 1)
        else
          QCheck.Test.fail_reportf "seed %d, step %d (%s): %s" seed i what
            (List.hd r.Inv.violations)
      in
      go 0)

(* ---------- failures ---------- *)

let test_stub_failure () =
  let net, inet, rng = small_internet 16 in
  let _ = populate net rng inet 300 Net.Multihomed in
  (* Pick a populated stub. *)
  let victim =
    List.find
      (fun s -> Ring.cardinal net.Net.resident_rings.(s) > 0)
      (Internet.stubs inet)
  in
  let lost = Ring.cardinal net.Net.resident_rings.(victim) in
  let f = Asfailure.fail_stub net victim ~samples:100 in
  Alcotest.(check int) "ids lost" lost f.Asfailure.ids_lost;
  Alcotest.(check bool) "repair charged" true (f.Asfailure.repair_msgs > 0);
  Alcotest.(check bool) "repairs linear-ish in ids" true
    (f.Asfailure.repair_msgs <= 40 * max 1 f.Asfailure.ids_lost);
  (* Remaining traffic still routes. *)
  let hosts = Hashtbl.fold (fun _ h acc -> h :: acc) net.Net.hosts [] |> Array.of_list in
  for _ = 1 to 100 do
    let a = Prng.sample rng hosts and b = Prng.sample rng hosts in
    let r = Route.route_from net ~src:a ~dst:b.Net.id in
    Alcotest.(check bool) "survivors route" true r.Route.delivered
  done

let test_stub_failure_containment () =
  let net, inet, rng = small_internet 17 in
  let _ = populate net rng inet 400 Net.Multihomed in
  let victim =
    List.find
      (fun s -> Ring.cardinal net.Net.resident_rings.(s) > 0)
      (Internet.stubs inet)
  in
  let f = Asfailure.fail_stub net victim ~samples:300 in
  Alcotest.(check bool)
    (Printf.sprintf "transit impact %.3f below total %.3f + eps"
       f.Asfailure.transit_fraction_affected f.Asfailure.fraction_paths_affected)
    true
    (f.Asfailure.transit_fraction_affected <= f.Asfailure.fraction_paths_affected +. 1e-9)

let () =
  Alcotest.run "rofl_inter"
    [
      ( "level",
        [
          Alcotest.test_case "membership" `Quick test_level_membership;
          Alcotest.test_case "virtual ASes" `Quick test_level_vas;
          Alcotest.test_case "up distance" `Quick test_level_up_distance;
          Alcotest.test_case "route within" `Quick test_level_route_within;
          Alcotest.test_case "level chains" `Quick test_level_chains;
          Alcotest.test_case "subsumes" `Quick test_level_subsumes;
          QCheck_alcotest.to_alcotest prop_level_kernel_matches_reference;
          QCheck_alcotest.to_alcotest prop_distance_within_symmetric;
        ] );
      ( "join",
        [
          Alcotest.test_case "registers at all levels" `Quick test_join_registers_everywhere;
          Alcotest.test_case "ephemeral root only" `Quick test_join_ephemeral_root_only;
          Alcotest.test_case "duplicate rejected" `Quick test_join_duplicate_rejected;
          Alcotest.test_case "cost ordering" `Quick test_join_cost_ordering;
          Alcotest.test_case "dedup optimisation" `Quick test_dedup_reduces_join_cost;
          Alcotest.test_case "fingers acquired" `Quick test_fingers_acquired;
          Alcotest.test_case "remove host" `Quick test_remove_host;
        ] );
      ( "route",
        [
          Alcotest.test_case "delivers" `Quick test_route_delivers;
          Alcotest.test_case "same-AS zero hops" `Quick test_route_same_as_zero_hops;
          Alcotest.test_case "isolation property" `Quick test_isolation_property;
          Alcotest.test_case "fingers reduce stretch" `Slow test_fingers_reduce_stretch;
          Alcotest.test_case "cache shortcut" `Quick test_cache_shortcut;
          Alcotest.test_case "bloom peering backtracks" `Quick test_bloom_peering_backtracks;
          Alcotest.test_case "bloom state accounted" `Quick test_bloom_state_accounted;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "steady state" `Quick test_invariants_steady_state;
          Alcotest.test_case "after churn" `Quick test_invariants_after_churn;
          QCheck_alcotest.to_alcotest prop_invariant_under_churn;
        ] );
      ( "failure",
        [
          Alcotest.test_case "stub failure" `Quick test_stub_failure;
          Alcotest.test_case "containment" `Quick test_stub_failure_containment;
        ] );
    ]
