(* Link-state substrate tests: SPF correctness, failure handling, events,
   source-route validity. *)

module Graph = Rofl_topology.Graph
module Gen = Rofl_topology.Gen
module Isp = Rofl_topology.Isp
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics
module Network = Rofl_intra.Network
module Prng = Rofl_util.Prng

let line5 () = Linkstate.create (Gen.line 5 ~latency_ms:1.0)

(* The list model of a route block: its routers, a little-endian uint16
   each. *)
let routers_of b = List.init (Bytes.length b / 2) (fun i -> Bytes.get_uint16_le b (2 * i))

let block_of hops =
  let b = Bytes.create (2 * List.length hops) in
  List.iteri (fun i r -> Bytes.set_uint16_le b (2 * i) r) hops;
  b

(* [Linkstate.route] read through the list model: [None] for the empty
   block. *)
let path ls a b =
  match routers_of (Linkstate.route ls a b) with [] -> None | p -> Some p

let valid ls hops = Linkstate.valid_source_route ls (block_of hops) 0

let test_path_line () =
  let ls = line5 () in
  Alcotest.(check (option (list int))) "path 0-4" (Some [ 0; 1; 2; 3; 4 ])
    (path ls 0 4);
  Alcotest.(check (option int)) "hops" (Some 4) (Linkstate.distance_hops ls 0 4);
  Alcotest.(check (option (list int))) "self path" (Some [ 2 ]) (path ls 2 2);
  Alcotest.(check (option int)) "self hops" (Some 0) (Linkstate.distance_hops ls 2 2)

let test_latency_weighted () =
  (* Triangle where the two-hop route is cheaper than the direct link. *)
  let g = Graph.create 3 in
  Graph.add_link g 0 2 ~latency_ms:10.0;
  Graph.add_link g 0 1 ~latency_ms:1.0;
  Graph.add_link g 1 2 ~latency_ms:1.0;
  let ls = Linkstate.create g in
  Alcotest.(check (option (list int))) "takes the cheap detour" (Some [ 0; 1; 2 ])
    (path ls 0 2);
  Alcotest.(check (option (float 1e-9))) "latency 2" (Some 2.0)
    (Linkstate.distance_to ls 0 2)

let test_next_hop () =
  let ls = line5 () in
  Alcotest.(check (option int)) "next hop" (Some 1) (Linkstate.next_hop ls 0 3);
  Alcotest.(check (option int)) "no next hop to self" None (Linkstate.next_hop ls 2 2)

let test_link_failure_reroutes () =
  let g = Gen.ring 4 ~latency_ms:1.0 in
  let ls = Linkstate.create g in
  Alcotest.(check (option int)) "direct" (Some 1) (Linkstate.distance_hops ls 0 1);
  Linkstate.fail_link ls 0 1;
  Alcotest.(check (option int)) "around the ring" (Some 3) (Linkstate.distance_hops ls 0 1);
  Linkstate.restore_link ls 0 1;
  Alcotest.(check (option int)) "restored" (Some 1) (Linkstate.distance_hops ls 0 1)

let test_partition () =
  let ls = line5 () in
  Linkstate.fail_link ls 2 3;
  Alcotest.(check bool) "partitioned" false (Linkstate.reachable ls 0 4);
  Alcotest.(check (option int)) "no path" None (Linkstate.distance_hops ls 0 4);
  Alcotest.(check bool) "same side ok" true (Linkstate.reachable ls 0 2)

let test_router_failure () =
  let ls = line5 () in
  Linkstate.fail_router ls 2;
  Alcotest.(check bool) "router down" false (Linkstate.router_alive ls 2);
  Alcotest.(check bool) "cuts the line" false (Linkstate.reachable ls 0 4);
  Alcotest.(check bool) "adjacent links dead" false (Linkstate.link_alive ls 1 2);
  Linkstate.restore_router ls 2;
  Alcotest.(check bool) "healed" true (Linkstate.reachable ls 0 4)

let test_events () =
  let ls = line5 () in
  let log = ref [] in
  Linkstate.on_event ls (fun ev -> log := ev :: !log);
  Linkstate.fail_link ls 0 1;
  Linkstate.fail_link ls 0 1 (* idempotent: no second event *);
  Linkstate.restore_link ls 0 1;
  Linkstate.fail_router ls 3;
  Alcotest.(check int) "three events" 3 (List.length !log);
  (match !log with
   | [ Linkstate.Router_down 3; Linkstate.Link_up (0, 1); Linkstate.Link_down (0, 1) ] -> ()
   | _ -> Alcotest.fail "unexpected event sequence")

let test_valid_source_route () =
  let ls = line5 () in
  Alcotest.(check bool) "good route" true (valid ls [ 0; 1; 2 ]);
  Alcotest.(check bool) "gap" false (valid ls [ 0; 2 ]);
  Alcotest.(check bool) "empty" false (valid ls []);
  Alcotest.(check bool) "singleton" true (valid ls [ 3 ]);
  let gap = block_of [ 0; 2; 3; 4 ] in
  Alcotest.(check bool) "slice past the gap" true (Linkstate.valid_source_route ls gap 1);
  Alcotest.(check bool) "last hop alone" true (Linkstate.valid_source_route ls gap 3);
  Alcotest.(check bool) "slice past the end" false (Linkstate.valid_source_route ls gap 4);
  Linkstate.fail_link ls 1 2;
  Alcotest.(check bool) "failed link invalidates" false
    (valid ls [ 0; 1; 2 ])

let test_counts_and_flood () =
  let ls = Linkstate.create (Gen.ring 6 ~latency_ms:1.0) in
  Alcotest.(check int) "flood = 2 links" 12 (Linkstate.lsa_flood_cost ls);
  Linkstate.fail_link ls 0 1;
  Alcotest.(check int) "flood shrinks" 10 (Linkstate.lsa_flood_cost ls)

let test_diameter_tracks_failures () =
  let ls = Linkstate.create (Gen.ring 6 ~latency_ms:1.0) in
  Alcotest.(check int) "ring diameter" 3 (Linkstate.diameter_hops ls);
  Linkstate.fail_link ls 0 5;
  Alcotest.(check int) "line diameter after cut" 5 (Linkstate.diameter_hops ls)

(* Routers 0-1-2-3 are joined by zero-latency links, so 4 is pushed at
   latency 1 with four hops before 6, also at latency 1 but two hops away
   over 5, is pushed; 4 settles first.  6 then reaches 4 again over a
   zero-latency link in fewer hops.  Relabelling the settled 4 would leave
   7, labelled through it, one hop longer than its path. *)
let test_zero_latency_hops () =
  let g = Graph.create 8 in
  List.iter
    (fun (u, v, l) -> Graph.add_link g u v ~latency_ms:l)
    [ (0, 1, 0.0); (1, 2, 0.0); (2, 3, 0.0); (3, 4, 1.0); (0, 5, 0.5); (5, 6, 0.5);
      (6, 4, 0.0); (4, 7, 1.0) ];
  let ls = Linkstate.create g in
  for dst = 0 to 7 do
    let hops = Option.map (fun p -> List.length p - 1) (path ls 0 dst) in
    Alcotest.(check (option int))
      (Printf.sprintf "hops to %d = path" dst)
      hops (Linkstate.distance_hops ls 0 dst)
  done;
  Alcotest.(check (option (list int))) "7 through the settled 4" (Some [ 0; 1; 2; 3; 4; 7 ])
    (path ls 0 7)

let test_spf_cache_invalidation () =
  let ls = line5 () in
  ignore (path ls 0 4);
  Linkstate.fail_link ls 3 4;
  (* The memoised SPF must not serve the stale path. *)
  Alcotest.(check (option (list int))) "stale path dropped" None (path ls 0 4)

(* The compact-state pin: with a complete tree from every source of
   AS1239's 604 routers, the whole [Linkstate] (graph, adjacency and every
   tree included) holds at most [max_words_per_tree] words per router.  A
   tree is a float array of distances and one byte block of parents, hop
   counts and settled flags: ~1,028 words per router in all.  A word per
   router for any of those three would cross the bound. *)
let max_words_per_tree = 1_100

let test_compact_trees () =
  let g = (Isp.generate (Prng.create 1) Isp.as1239).Isp.graph in
  let n = Graph.n g in
  let ls = Linkstate.create g in
  ignore (Linkstate.diameter_hops ls);
  let per_tree = Obj.reachable_words (Obj.repr ls) / n in
  if per_tree > max_words_per_tree then
    Alcotest.failf "%d words per settled tree on AS1239, bound %d" per_tree max_words_per_tree

(* A ring too large for the liveness matrix, so every liveness test takes
   the probe chain.  With link 0-1 down, every query from 0 to 1 goes the
   long way round, through all 4,100 routers. *)
let test_large_ring () =
  let n = 4100 in
  let ls = Linkstate.create (Gen.ring n ~latency_ms:1.0) in
  let price () =
    let reg = [| 0.0 |] in
    let h = Linkstate.price_hop_into ls 0 1 ~latency:reg 0 in
    (h, reg.(0))
  in
  Alcotest.(check (option (list int))) "direct" (Some [ 0; 1 ]) (path ls 0 1);
  Linkstate.fail_link ls 0 1;
  let long_way = 0 :: List.init (n - 1) (fun i -> n - 1 - i) in
  Alcotest.(check (option (list int))) "long way round" (Some long_way) (path ls 0 1);
  Alcotest.(check (pair int (float 0.0))) "priced the long way"
    (n - 1, float_of_int (n - 1))
    (price ());
  Alcotest.(check bool) "failed link rejected" false (valid ls [ 0; 1 ]);
  Alcotest.(check bool) "long way valid" true (valid ls long_way);
  Alcotest.(check bool) "still reachable" true (Linkstate.reachable ls 0 1);
  Linkstate.fail_link ls 2000 2001;
  Alcotest.(check bool) "two cuts partition" false (Linkstate.reachable ls 0 1);
  Alcotest.(check (option (list int))) "no path across the cuts" None (path ls 0 1);
  Linkstate.restore_link ls 2000 2001;
  Linkstate.restore_link ls 0 1;
  Alcotest.(check (option (list int))) "restored" (Some [ 0; 1 ]) (path ls 0 1);
  Alcotest.(check (pair int (float 0.0))) "priced direct" (1, 1.0) (price ());
  Alcotest.(check bool) "restored link valid" true (valid ls [ 0; 1 ])

(* Parents, hop counts and frontier routers are 16-bit fields with 0xFFFF
   for "none", so [create] takes at most 65,534 routers. *)
let test_router_bound () =
  ignore (Linkstate.create (Graph.create 65_534));
  Alcotest.check_raises "65,535 routers" (Invalid_argument "Linkstate.create: graph too large")
    (fun () -> ignore (Linkstate.create (Graph.create 65_535)))

(* Golden test for the targeted SPF invalidation: run a randomized
   fail/restore script, interleaving single-pair queries so the per-source
   tree cache holds a mix of partial and complete trees, and after every
   event compare the incrementally-maintained instance against a fresh one
   that replays the same failed sets from scratch.  Distances must match
   exactly; paths must be valid source routes of exactly the golden cost. *)
let test_invalidation_golden () =
  let n = 40 in
  let g = Gen.waxman (Prng.create 1234) ~n ~alpha:0.4 ~beta:0.2 in
  let edges = Array.of_list (Graph.links g) in
  let ls = Linkstate.create g in
  let failed_links = Hashtbl.create 16 in
  let failed_routers = Hashtbl.create 16 in
  let rng = Prng.create 99 in
  let path_cost p =
    let cost = ref 0.0 in
    let rec walk = function
      | x :: (y :: _ as rest) ->
        cost := !cost +. Graph.latency g x y;
        walk rest
      | _ -> ()
    in
    walk p;
    !cost
  in
  let check_against_fresh step =
    let fresh = Linkstate.create g in
    Hashtbl.iter (fun (u, v) () -> Linkstate.fail_link fresh u v) failed_links;
    Hashtbl.iter (fun r () -> Linkstate.fail_router fresh r) failed_routers;
    for _ = 1 to 25 do
      let a = Prng.int rng n and b = Prng.int rng n in
      let ctx = Printf.sprintf "step %d pair %d-%d" step a b in
      Alcotest.(check (option (float 1e-9)))
        (ctx ^ " latency")
        (Linkstate.distance_to fresh a b)
        (Linkstate.distance_to ls a b);
      Alcotest.(check (option int))
        (ctx ^ " hops")
        (Linkstate.distance_hops fresh a b)
        (Linkstate.distance_hops ls a b);
      match path ls a b with
      | None ->
        Alcotest.(check bool) (ctx ^ " both unreachable") false
          (Linkstate.reachable fresh a b)
      | Some p ->
        Alcotest.(check bool) (ctx ^ " path valid") true
          (valid ls p);
        (match Linkstate.distance_to fresh a b with
         | Some d -> Alcotest.(check (float 1e-9)) (ctx ^ " path cost") d (path_cost p)
         | None -> Alcotest.fail (ctx ^ ": cached path where golden has none"))
    done
  in
  (* Warm the cache so events exercise invalidation, not cold rebuilds. *)
  for s = 0 to n - 1 do
    ignore (path ls s ((s + 7) mod n))
  done;
  for step = 1 to 40 do
    (match Prng.int rng 4 with
     | 0 ->
       let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
       Linkstate.fail_link ls u v;
       Hashtbl.replace failed_links (min u v, max u v) ()
     | 1 ->
       (match Hashtbl.fold (fun k () acc -> k :: acc) failed_links [] with
        | [] -> ()
        | ks ->
          let u, v = List.nth ks (Prng.int rng (List.length ks)) in
          Linkstate.restore_link ls u v;
          Hashtbl.remove failed_links (u, v))
     | 2 ->
       let r = Prng.int rng n in
       Linkstate.fail_router ls r;
       Hashtbl.replace failed_routers r ()
     | _ ->
       (match Hashtbl.fold (fun k () acc -> k :: acc) failed_routers [] with
        | [] -> ()
        | ks ->
          let r = List.nth ks (Prng.int rng (List.length ks)) in
          Linkstate.restore_router ls r;
          Hashtbl.remove failed_routers r));
    (* Partial-tree queries keep a mix of incomplete trees cached. *)
    for _ = 1 to 5 do
      ignore (Linkstate.distance_to ls (Prng.int rng n) (Prng.int rng n))
    done;
    check_against_fresh step
  done

(* -- reference kernel ------------------------------------------------------

   The link-state engine as it stood before the flat kernel: per-source
   resumable trees over the generic [Rofl_util.Heap], the same targeted
   invalidation, and every query built on the [path] list.  [advance] is
   kept verbatim; the property below holds the kernel to it exactly. *)
module Reference = struct
  module Heap = Rofl_util.Heap

  type spf = {
    src : int;
    dist : float array;
    hops : int array;
    parent : int array;
    settled : bool array;
    frontier : int Heap.t;
    mutable complete : bool;
  }

  type t = {
    g : Graph.t;
    failed_links : (int * int, unit) Hashtbl.t;
    failed_routers : (int, unit) Hashtbl.t;
    spf_cache : (int, spf) Hashtbl.t;
  }

  let create g =
    {
      g;
      failed_links = Hashtbl.create 16;
      failed_routers = Hashtbl.create 16;
      spf_cache = Hashtbl.create 16;
    }

  let canonical u v = if u <= v then (u, v) else (v, u)

  let router_alive t r = not (Hashtbl.mem t.failed_routers r)

  let link_alive t u v =
    router_alive t u && router_alive t v
    && Graph.has_link t.g u v
    && not (Hashtbl.mem t.failed_links (canonical u v))

  let new_spf t src =
    let n = Graph.n t.g in
    let st =
      {
        src;
        dist = Array.make n infinity;
        hops = Array.make n max_int;
        parent = Array.make n (-1);
        settled = Array.make n false;
        frontier = Heap.create ();
        complete = false;
      }
    in
    if router_alive t src then begin
      st.dist.(src) <- 0.0;
      st.hops.(src) <- 0;
      Heap.push st.frontier 0.0 src
    end
    else st.complete <- true;
    st

  let advance t (st : spf) ~until =
    let stop_at u = match until with Some d -> u = d | None -> false in
    let rec loop () =
      match Heap.pop st.frontier with
      | None -> st.complete <- true
      | Some (_, u) ->
        if st.settled.(u) then loop ()
        else begin
          st.settled.(u) <- true;
          List.iter
            (fun (v, w) ->
              if (not st.settled.(v)) && link_alive t u v then begin
                let nd = st.dist.(u) +. w in
                if
                  nd < st.dist.(v)
                  || (nd = st.dist.(v) && st.hops.(u) + 1 < st.hops.(v))
                then begin
                  st.dist.(v) <- nd;
                  st.hops.(v) <- st.hops.(u) + 1;
                  st.parent.(v) <- u;
                  Heap.push st.frontier nd v
                end
              end)
            (Graph.neighbors t.g u);
          if not (stop_at u) then loop ()
        end
    in
    let already_done =
      st.complete || (match until with Some d -> st.settled.(d) | None -> false)
    in
    if not already_done then loop ()

  let state t src =
    match Hashtbl.find_opt t.spf_cache src with
    | Some st -> st
    | None ->
      let st = new_spf t src in
      Hashtbl.replace t.spf_cache src st;
      st

  let settle_to t src until =
    let st = state t src in
    advance t st ~until;
    st

  let drop_trees t pred =
    Hashtbl.filter_map_inplace (fun _ st -> if pred st then None else Some st) t.spf_cache

  let link_could_improve (st : spf) u v w =
    let du = st.dist.(u) and dv = st.dist.(v) in
    du +. w < dv || dv +. w < du
    || (du +. w = dv && st.hops.(u) + 1 < st.hops.(v))
    || (dv +. w = du && st.hops.(v) + 1 < st.hops.(u))

  let fail_link t u v =
    let key = canonical u v in
    if not (Hashtbl.mem t.failed_links key) then begin
      Hashtbl.add t.failed_links key ();
      drop_trees t (fun st -> st.parent.(v) = u || st.parent.(u) = v)
    end

  let restore_link t u v =
    let key = canonical u v in
    if Hashtbl.mem t.failed_links key then begin
      Hashtbl.remove t.failed_links key;
      if link_alive t u v then begin
        let w = Graph.latency t.g u v in
        drop_trees t (fun st ->
            if st.complete || (st.settled.(u) && st.settled.(v)) then
              link_could_improve st u v w
            else true)
      end
    end

  let fail_router t r =
    if not (Hashtbl.mem t.failed_routers r) then begin
      Hashtbl.add t.failed_routers r ();
      drop_trees t (fun st -> st.src = r || st.dist.(r) < infinity)
    end

  let restore_router t r =
    if Hashtbl.mem t.failed_routers r then begin
      Hashtbl.remove t.failed_routers r;
      drop_trees t (fun st ->
          st.src = r
          || (not st.complete)
          || List.exists
               (fun (u, _) -> link_alive t u r && st.dist.(u) < infinity)
               (Graph.neighbors t.g r))
    end

  let path t src dst =
    if not (router_alive t src && router_alive t dst) then None
    else begin
      let st = settle_to t src (Some dst) in
      if st.dist.(dst) = infinity then None
      else begin
        let rec walk acc v = if v = src then src :: acc else walk (v :: acc) st.parent.(v) in
        Some (walk [] dst)
      end
    end

  let distance_to t src dst =
    if not (router_alive t src && router_alive t dst) then None
    else begin
      let st = settle_to t src (Some dst) in
      if st.dist.(dst) < infinity then Some st.dist.(dst) else None
    end

  (* What the callers priced a path with: a left fold over the list. *)
  let path_latency g hops =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go (acc +. Graph.latency g a b) rest
      | [ _ ] | [] -> acc
    in
    go 0.0 hops

  let diameter_hops t =
    let best = ref 0 in
    for r = 0 to Graph.n t.g - 1 do
      if router_alive t r then begin
        let st = settle_to t r None in
        Array.iteri
          (fun v h -> if st.dist.(v) < infinity && h > !best then best := h)
          st.hops
      end
    done;
    !best
end

(* Random graph with small integer latencies (zero included), so that
   equal-latency ties -- decided by relaxation and settle order -- are the
   common case, not the exception. *)
let tie_heavy_graph rng =
  let n = 1 + Prng.int rng 10 in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.int rng 100 < 45 then
        Graph.add_link g u v ~latency_ms:(float_of_int (Prng.int rng 4))
    done
  done;
  g

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_float_opt a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_bits x y
  | _ -> false

(* Every answer of the kernel for (a, b) against the reference: the path list
   exactly, latencies bit for bit, and the list-free pricing and load walk
   against what the callers computed from the reference path. *)
let agrees g ls rf a b =
  let rpath = Reference.path rf a b in
  let rdist = Reference.distance_to rf a b in
  let rhops = Option.map (fun p -> List.length p - 1) rpath in
  let rnext = match rpath with Some (_ :: hop :: _) -> Some hop | _ -> None in
  let reg = [| 0.0 |] in
  let h = Linkstate.price_hop_into ls a b ~latency:reg 0 in
  let walk = ref [] in
  Linkstate.iter_path ls a b (fun acc r -> acc := r :: !acc) walk;
  let kernel_m = Metrics.create ~routers:(Graph.n g)
  and ref_m = Metrics.create ~routers:(Graph.n g) in
  let creg = [| 0.0 |] in
  let ch = Network.charge_spf_into ls kernel_m Metrics.Data a b ~latency:creg 0 in
  Option.iter (Metrics.charge_path ref_m Metrics.Data) rpath;
  path ls a b = rpath
  && same_float_opt (Linkstate.distance_to ls a b) rdist
  && same_float_opt (Linkstate.distance_to ls a b) rdist
  && Linkstate.distance_hops ls a b = rhops
  && Linkstate.next_hop ls a b = rnext
  && Linkstate.reachable ls a b = Option.is_some rpath
  && (match rpath with
      | None -> h = -1 && same_bits reg.(0) 0.0 && !walk = [] && ch = -1
      | Some p ->
        let lat = Reference.path_latency g p in
        Some h = rhops && same_bits reg.(0) lat && !walk = p && ch = h
        && same_bits creg.(0) lat)
  && Metrics.categories kernel_m = Metrics.categories ref_m
  && Metrics.total kernel_m = Metrics.total ref_m
  && Metrics.router_load kernel_m = Metrics.router_load ref_m

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"kernel = reference Dijkstra under fail/restore" ~count:300
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = tie_heavy_graph rng in
      let n = Graph.n g in
      let edges = Array.of_list (Graph.links g) in
      let ls = Linkstate.create g and rf = Reference.create g in
      let ok = ref true in
      for _ = 1 to 80 do
        if !ok then
          match Prng.int rng 10 with
          | 0 when Array.length edges > 0 ->
            let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
            Linkstate.fail_link ls u v;
            Reference.fail_link rf u v
          | 1 when Array.length edges > 0 ->
            let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
            Linkstate.restore_link ls u v;
            Reference.restore_link rf u v
          | 2 ->
            let r = Prng.int rng n in
            Linkstate.fail_router ls r;
            Reference.fail_router rf r
          | 3 ->
            let r = Prng.int rng n in
            Linkstate.restore_router ls r;
            Reference.restore_router rf r
          | 4 -> ok := Linkstate.diameter_hops ls = Reference.diameter_hops rf
          | _ -> ok := agrees g ls rf (Prng.int rng n) (Prng.int rng n)
      done;
      !ok)

(* The route kernel against the reference's parent chain, for every pair
   after every event: the block's routers are the chain from the source to
   the destination, its size is [2 * (hops + 1)] bytes for the kernel's own
   hop count (the empty block when that is -1), and every slice of it is a
   valid source route. *)
let prop_route_block_matches_chain =
  QCheck.Test.make ~name:"route block = reference parent chain under fail/restore"
    ~count:200 QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = tie_heavy_graph rng in
      let n = Graph.n g in
      let edges = Array.of_list (Graph.links g) in
      let ls = Linkstate.create g and rf = Reference.create g in
      let pair_ok a b =
        let block = Linkstate.route ls a b in
        let hops = Linkstate.distance_hops_count ls a b in
        let expected = match Reference.path rf a b with Some p -> p | None -> [] in
        routers_of block = expected
        && Bytes.length block = (if hops < 0 then 0 else 2 * (hops + 1))
        && List.for_all
             (fun start -> Linkstate.valid_source_route ls block start)
             (List.init (Bytes.length block / 2) Fun.id)
      in
      let all_ok () =
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if !ok && not (pair_ok a b) then ok := false
          done
        done;
        !ok
      in
      let ok = ref (all_ok ()) in
      for _ = 1 to 20 do
        if !ok then begin
          (match Prng.int rng 4 with
           | 0 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.fail_link ls u v;
             Reference.fail_link rf u v
           | 1 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.restore_link ls u v;
             Reference.restore_link rf u v
           | 2 ->
             let r = Prng.int rng n in
             Linkstate.fail_router ls r;
             Reference.fail_router rf r
           | _ ->
             let r = Prng.int rng n in
             Linkstate.restore_router ls r;
             Reference.restore_router rf r);
          ok := all_ok ()
        end
      done;
      !ok)

(* A sparse random graph: a random spanning tree plus a few chords, so
   single failures often cut it in two. *)
let sparse_graph rng =
  let n = 1 + Prng.int rng 12 in
  let g = Graph.create n in
  for v = 1 to n - 1 do
    Graph.add_link g (Prng.int rng v) v ~latency_ms:(float_of_int (1 + Prng.int rng 3))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if (not (Graph.has_link g u v)) && Prng.int rng 100 < 8 then
        Graph.add_link g u v ~latency_ms:1.0
    done
  done;
  g

(* [reachable] reads component labels; after every step of a random
   fail/restore script it must give, for every pair (src = dst and dead
   endpoints included), the tree answer of a fresh instance that replays
   the failed sets. *)
let prop_reachable_matches_trees =
  QCheck.Test.make ~name:"reachable = tree answer of a fresh instance" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = sparse_graph rng in
      let n = Graph.n g in
      let edges = Array.of_list (Graph.links g) in
      let ls = Linkstate.create g in
      let failed_links = Hashtbl.create 8 and failed_routers = Hashtbl.create 8 in
      let agrees () =
        let fresh = Linkstate.create g in
        Hashtbl.iter (fun (u, v) () -> Linkstate.fail_link fresh u v) failed_links;
        Hashtbl.iter (fun r () -> Linkstate.fail_router fresh r) failed_routers;
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if Linkstate.reachable ls a b <> Option.is_some (Linkstate.distance_to fresh a b)
            then ok := false
          done
        done;
        !ok
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 40 do
        if !ok then begin
          (match Prng.int rng 4 with
           | 0 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.fail_link ls u v;
             Hashtbl.replace failed_links (min u v, max u v) ()
           | 1 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.restore_link ls u v;
             Hashtbl.remove failed_links (min u v, max u v)
           | 2 ->
             let r = Prng.int rng n in
             Linkstate.fail_router ls r;
             Hashtbl.replace failed_routers r ()
           | _ ->
             let r = Prng.int rng n in
             Linkstate.restore_router ls r;
             Hashtbl.remove failed_routers r);
          ok := agrees ()
        end
      done;
      !ok)

(* Reference minimum-hop distance: a plain breadth-first search over
   [Graph.neighbors], skipping failed routers and links; -1 unreachable. *)
let reference_min_hops g failed_links failed_routers a b =
  let n = Graph.n g in
  let up r = not (Hashtbl.mem failed_routers r) in
  if not (up a && up b) then -1
  else begin
    let dist = Array.make n (-1) and q = Queue.create () in
    dist.(a) <- 0;
    Queue.add a q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (v, _) ->
          if dist.(v) < 0 && up v && not (Hashtbl.mem failed_links (min u v, max u v)) then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Graph.neighbors g u)
    done;
    dist.(b)
  end

(* [min_hops] serves memoised rows; after every step of a random
   fail/restore script, with every row of the previous step still cached,
   it must give the reference answer for every pair. *)
let prop_min_hops_matches_bfs =
  QCheck.Test.make ~name:"min_hops = fresh BFS under fail/restore" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = sparse_graph rng in
      let n = Graph.n g in
      let edges = Array.of_list (Graph.links g) in
      let ls = Linkstate.create g in
      let failed_links = Hashtbl.create 8 and failed_routers = Hashtbl.create 8 in
      let agrees () =
        let ok = ref true in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if Linkstate.min_hops ls a b <> reference_min_hops g failed_links failed_routers a b
            then ok := false
          done
        done;
        !ok
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 40 do
        if !ok then begin
          (match Prng.int rng 4 with
           | 0 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.fail_link ls u v;
             Hashtbl.replace failed_links (min u v, max u v) ()
           | 1 when Array.length edges > 0 ->
             let { Graph.u; v; _ } = edges.(Prng.int rng (Array.length edges)) in
             Linkstate.restore_link ls u v;
             Hashtbl.remove failed_links (min u v, max u v)
           | 2 ->
             let r = Prng.int rng n in
             Linkstate.fail_router ls r;
             Hashtbl.replace failed_routers r ()
           | _ ->
             let r = Prng.int rng n in
             Linkstate.restore_router ls r;
             Hashtbl.remove failed_routers r);
          ok := agrees ()
        end
      done;
      !ok)

let prop_paths_are_valid_routes =
  QCheck.Test.make ~name:"every SPF path is a valid source route" ~count:100
    QCheck.(pair (int_range 1 500) (pair (int_range 0 39) (int_range 0 39)))
    (fun (seed, (a, b)) ->
      let g = Gen.waxman (Prng.create seed) ~n:40 ~alpha:0.4 ~beta:0.2 in
      let ls = Linkstate.create g in
      match path ls a b with
      | Some p -> valid ls p
      | None -> false (* connected graph: must always have a path *))

let prop_hops_symmetric =
  QCheck.Test.make ~name:"hop distance is symmetric" ~count:100
    QCheck.(pair (int_range 1 500) (pair (int_range 0 29) (int_range 0 29)))
    (fun (seed, (a, b)) ->
      let g = Gen.waxman (Prng.create seed) ~n:30 ~alpha:0.4 ~beta:0.2 in
      let ls = Linkstate.create g in
      Linkstate.distance_hops ls a b = Linkstate.distance_hops ls b a)

let () =
  Alcotest.run "rofl_linkstate"
    [
      ( "spf",
        [
          Alcotest.test_case "line paths" `Quick test_path_line;
          Alcotest.test_case "latency weighted" `Quick test_latency_weighted;
          Alcotest.test_case "next hop" `Quick test_next_hop;
          Alcotest.test_case "cache invalidation" `Quick test_spf_cache_invalidation;
          Alcotest.test_case "invalidation golden vs fresh" `Quick
            test_invalidation_golden;
          Alcotest.test_case "compact trees on AS1239" `Quick test_compact_trees;
          Alcotest.test_case "router bound" `Quick test_router_bound;
          QCheck_alcotest.to_alcotest prop_paths_are_valid_routes;
          QCheck_alcotest.to_alcotest prop_hops_symmetric;
          QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
          QCheck_alcotest.to_alcotest prop_route_block_matches_chain;
          QCheck_alcotest.to_alcotest prop_reachable_matches_trees;
          QCheck_alcotest.to_alcotest prop_min_hops_matches_bfs;
        ] );
      ( "failures",
        [
          Alcotest.test_case "link failure reroutes" `Quick test_link_failure_reroutes;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "router failure" `Quick test_router_failure;
          Alcotest.test_case "events" `Quick test_events;
          Alcotest.test_case "source-route validity" `Quick test_valid_source_route;
          Alcotest.test_case "counts and flood cost" `Quick test_counts_and_flood;
          Alcotest.test_case "diameter tracks failures" `Quick test_diameter_tracks_failures;
          Alcotest.test_case "zero-latency ties keep hops = path" `Quick test_zero_latency_hops;
          Alcotest.test_case "4,100-router ring off the matrix" `Quick test_large_ring;
        ] );
    ]
