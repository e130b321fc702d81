(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) as labelled text tables, runs the ablations from
   DESIGN.md, and finishes with Bechamel microbenchmarks of the core
   primitives.

     dune exec bench/main.exe                    -- everything, full scale
     dune exec bench/main.exe -- --quick         -- everything, reduced scale
     dune exec bench/main.exe -- fig6a summary   -- selected targets
     dune exec bench/main.exe -- micro           -- microbenchmarks only
     dune exec bench/main.exe -- --jobs 4 fig7   -- fan work over 4 domains

   Each run also writes BENCH.json next to the working directory, for CI
   artifacts and regression tracking.  Per target it records wall time plus
   GC deltas (minor/major words, major collections) so an allocation
   regression is a tracked number, not a claim; the micro section records
   ns/run and minor words/run per primitive (ring successor and the
   walk-step primitives must stay at 0 words/run — CI gates on it). *)

module Table = Rofl_util.Table
module E = Rofl_experiments

(* ---------------- per-target GC accounting ---------------- *)

type gc_cost = {
  seconds : float;
  minor_words : int;
  major_words : int;
  gc_majors : int;
}

(* OCaml 5 GC stats are per-domain: add the pool workers' tallies to the
   main domain's own delta so --jobs N runs don't under-report.  Major
   collection counts remain main-domain only (collections are per-domain
   events; the main domain's count is the stable, comparable one). *)
let measure f =
  let s0 = Gc.quick_stat () in
  let pm0 = Rofl_util.Pool.worker_minor_words () in
  let pj0 = Rofl_util.Pool.worker_major_words () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let seconds = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  let cost =
    {
      seconds;
      minor_words =
        int_of_float (s1.Gc.minor_words -. s0.Gc.minor_words)
        + (Rofl_util.Pool.worker_minor_words () - pm0);
      major_words =
        int_of_float (s1.Gc.major_words -. s0.Gc.major_words)
        + (Rofl_util.Pool.worker_major_words () - pj0);
      gc_majors = s1.Gc.major_collections - s0.Gc.major_collections;
    }
  in
  (result, cost)

(* ---------------- Bechamel microbenchmarks ---------------- *)

(* The seed's Map-based ring, kept as an in-bench baseline so the flat
   ring's speedup is measured against the real predecessor, not remembered
   from a changelog. *)
module Id_map = Map.Make (struct
  type t = Rofl_idspace.Id.t

  let compare = Rofl_idspace.Id.compare
end)

let map_ring_successor m x =
  match Id_map.find_first_opt (fun k -> Rofl_idspace.Id.compare k x > 0) m with
  | Some kv -> Some kv
  | None -> Id_map.min_binding_opt m

type micro_row = { name : string; ns_per_run : float; minor_words_per_run : float }

(* Minor words allocated, read from the allocation pointer.  Bechamel's
   [Instance.minor_allocated] reads [Gc.quick_stat], whose minor_words
   advance only at minor collections on OCaml 5: a row allocating a few
   words per microsecond runs a whole quota without one and reads 0. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Bechamel.Measure.instance (module Minor_words) (Bechamel.Measure.register (module Minor_words))

let micro () =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Ring = Rofl_idspace.Ring in
  (* Every fixture draws from its own generator, seeded by a name, so adding,
     removing or reordering a row moves no other row's inputs. *)
  let named name = Rofl_util.Prng.create (Hashtbl.hash name) in
  let id_rng = named "id-pair" in
  let id_a = Id.random id_rng and id_b = Id.random id_rng in
  let payload = String.init 256 (fun i -> Char.chr (i land 0xff)) in
  let isp = Rofl_topology.Isp.generate (named "isp-as3967") Rofl_topology.Isp.as3967 in
  let ls = Rofl_linkstate.Linkstate.create isp.Rofl_topology.Isp.graph in
  let price_reg = [| 0.0 |] in
  (* A cold full tree per run on its own instance: failing a leaf router's
     only link drops the tree from router 0, which used it; asking for the
     now unreachable leaf drains a whole new tree; restoring the link drops
     that tree again for the next run. *)
  let cold_ls = Rofl_linkstate.Linkstate.create isp.Rofl_topology.Isp.graph in
  let leaf, hub =
    let g = isp.Rofl_topology.Isp.graph in
    let rec find r =
      match Rofl_topology.Graph.neighbors g r with
      | [ (hub, _) ] when r <> 0 -> (r, hub)
      | _ -> find (r + 1)
    in
    find 0
  in
  (* Component-label reachability on its own instance, warm after an event:
     the leaf's cut retires the labels and the first query rebuilds them,
     so every run reads the published labels only. *)
  let reach_ls = Rofl_linkstate.Linkstate.create isp.Rofl_topology.Isp.graph in
  Rofl_linkstate.Linkstate.fail_link reach_ls leaf hub;
  ignore (Rofl_linkstate.Linkstate.reachable reach_ls 0 leaf);
  let reach_n = Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
  let reach_i = ref 0 in
  let one_block = String.sub payload 0 32 in
  let cache = Rofl_core.Pointer_cache.create ~capacity:4096 in
  let cache_rng = named "cache-best-match" in
  for i = 0 to 4095 do
    let dst = Id.random cache_rng in
    let router = i mod Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
    Rofl_core.Pointer_cache.insert cache
      (Rofl_core.Pointer.make Rofl_core.Pointer.Cached ~dst ~dst_router:router
         ~route:(Rofl_core.Sourceroute.singleton router) ~start:0)
  done;
  let ring_rng = named "ring-2k" in
  let members = Array.init 2048 (fun _ -> Id.random ring_rng) in
  (* Flat ring vs the seed's Map ring over the same 2048 members. *)
  let ring = Ring.create () in
  Array.iter (fun id -> Ring.add id 0 ring) members;
  let map_ring =
    Array.fold_left (fun acc id -> Id_map.add id 0 acc) Id_map.empty members
  in
  let churn_i = ref 0 in
  (* Rotate queries through a precomputed pool: a fixed probe id lets the
     branch predictor learn the whole search path and under-reports both
     structures (and flatters the Map's pointer chase, which stays hot in
     cache).  512 random probes defeat the predictor without adding
     measurable per-run overhead. *)
  let probes = Array.init 512 (fun _ -> Id.random ring_rng) in
  (* Two add/remove passes over the probes give every chunk they reach its
     spare slot (and split any full one) before measuring, so the churn row
     times the in-place shifts alone. *)
  for _ = 1 to 2 do
    Array.iter
      (fun id ->
        Ring.add id 0 ring;
        Ring.remove id ring)
      probes
  done;
  let succ_i = ref 0 and msucc_i = ref 0 and match_i = ref 0 in
  (* A full 128-entry cache fed 512 rotating destinations: every insert is
     a fresh identifier, so every insert evicts. *)
  let full_cache = Rofl_core.Pointer_cache.create ~capacity:128 in
  let evict_rng = named "cache-insert-evict" in
  let fresh =
    Array.init 512 (fun i ->
        let router = i mod Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
        Rofl_core.Pointer.make Rofl_core.Pointer.Cached ~dst:(Id.random evict_rng)
          ~dst_router:router
          ~route:(Rofl_core.Sourceroute.singleton router) ~start:0)
  in
  Array.iter (Rofl_core.Pointer_cache.insert full_cache) fresh;
  let evict_i = ref 0 in
  (* Greedy lookups on AS3967 after 500 joins have filled the pointer
     caches, rotating through 512 precomputed (source, target) pairs. *)
  let rng = named "intra-lookup-as3967" in
  let net = Rofl_intra.Network.create ~rng isp.Rofl_topology.Isp.graph in
  let routers = Rofl_topology.Graph.n isp.Rofl_topology.Isp.graph in
  let hosts =
    Array.init 500 (fun _ ->
        match
          Rofl_intra.Network.join_fresh_host net ~gateway:(Rofl_util.Prng.int rng routers)
            ~cls:Rofl_core.Vnode.Stable
        with
        | Ok (id, _) -> id
        | Error e -> failwith ("bench: warm-up join failed: " ^ e))
  in
  let lookups =
    Array.init 512 (fun _ ->
        (Rofl_util.Prng.int rng routers, hosts.(Rofl_util.Prng.int rng (Array.length hosts))))
  in
  let lookup_i = ref 0 in
  (* One Stable host joining and leaving AS3967 after 500 warm joins, on a
     network of its own: a pre-drawn identifier and gateway each run, from
     512 rotating pairs.  The join walk, the splice's SPF routes, the
     control-path cache fill and the leave's teardown are all on this
     path. *)
  let join_intra, join_pairs =
    let jrng = named "intra-join-as3967" in
    let net = Rofl_intra.Network.create ~rng:jrng isp.Rofl_topology.Isp.graph in
    let join id gateway =
      match Rofl_intra.Network.join_host net ~gateway ~id ~cls:Rofl_core.Vnode.Stable with
      | Ok _ -> ()
      | Error e -> failwith ("bench: intra join failed: " ^ e)
    in
    for _ = 1 to 500 do
      join (Id.random jrng) (Rofl_util.Prng.int jrng routers)
    done;
    (net, Array.init 512 (fun _ -> (Id.random jrng, Rofl_util.Prng.int jrng routers)))
  in
  let intra_join_i = ref 0 in
  (* Owner reads on a converged AS3967 actor ring of 2,000 bootstrap hosts,
     rotating through 512 fixed (source router, target) pairs, a quarter of
     them random targets, the rest members: [Owner.lookup_owner] as
     async-churn's owner phase calls it. *)
  let owner_proto, owner_pairs =
    let orng = named "lookup-owner-as3967" in
    let proto =
      Rofl_proto.Proto.create ~rng:orng ~bootstrap_hosts:2_000 isp.Rofl_topology.Isp.graph
    in
    let members = Array.of_list (Rofl_proto.Proto.members proto) in
    let pairs =
      Array.init 512 (fun k ->
          ( Rofl_util.Prng.int orng routers,
            if k mod 4 = 3 then Id.random orng
            else members.(Rofl_util.Prng.int orng (Array.length members)) ))
    in
    (proto, pairs)
  in
  let owner_i = ref 0 in
  (* One stabilisation period ([Proto.run_for] 50 ms) on a converged AS3967
     actor ring of 2,000 bootstrap hosts with the stabiliser on: every
     member probes its successor, hears back and notifies it, all by
     message.  The row draws its topology and hosts from its own generator.
     A warm-up second grows the queues and tables to their steady size. *)
  let stab_proto =
    let srng = named "proto-stabilize-as3967" in
    let sisp = Rofl_topology.Isp.generate srng Rofl_topology.Isp.as3967 in
    let proto =
      Rofl_proto.Proto.create ~rng:srng ~bootstrap_hosts:2_000 sisp.Rofl_topology.Isp.graph
    in
    Rofl_proto.Proto.start_stabilizer proto;
    Rofl_proto.Proto.run_for proto 1_000.0;
    proto
  in
  (* Level-restricted valley-free routes on the default ~1,100-AS Internet,
     rotating through 512 precomputed stub pairs, each priced at [Root]
     and at the pair's least common ancestor, with every climb memoised by
     a warm-up pass: the per-level pricing of each interdomain join. *)
  let inter_ctx, inter_pairs =
    let module Asgraph = Rofl_asgraph.Asgraph in
    let module Internet = Rofl_asgraph.Internet in
    let module Level = Rofl_inter.Level in
    let irng = named "inter-route-within" in
    let inet = Internet.generate irng Internet.default_params in
    let g = inet.Internet.graph in
    let stubs = Array.of_list (Internet.stubs inet) in
    let pick () = stubs.(Rofl_util.Prng.int irng (Array.length stubs)) in
    let pairs =
      Array.init 512 (fun _ ->
          let src = pick () and dst = pick () in
          match Asgraph.least_common_ancestors g src dst with
          | a :: _ -> (src, dst, Level.Real a)
          | [] -> (src, dst, Level.Root))
    in
    let ctx = Level.make_ctx g in
    Array.iter
      (fun (src, dst, level) ->
        ignore (Level.route_within ctx Level.Root src dst);
        ignore (Level.route_within ctx level src dst))
      pairs;
    (ctx, pairs)
  in
  let route_i = ref 0 in
  (* The BGP stretch denominator on the same Internet and pairs: one
     provider climb from the destination, then the source's preference read
     upwards, on scratch sized by a warm-up pass. *)
  let bgp = Rofl_asgraph.Policy.create (Rofl_inter.Level.graph inter_ctx) in
  Array.iter
    (fun (src, dst, _) -> ignore (Rofl_asgraph.Policy.bgp_distance bgp ~src ~dst))
    inter_pairs;
  let bgp_i = ref 0 in
  (* Greedy interdomain walks on the small Internet after 300 mixed joins,
     rotating through 512 precomputed (source host, destination) pairs:
     [Route.route_from] as the figures call it, with no trace sink. *)
  let inter_net, inter_walks =
    let module Internet = Rofl_asgraph.Internet in
    let module Net = Rofl_inter.Net in
    let irng = named "inter-route" in
    let inet = Internet.generate irng Internet.small_params in
    let net = Net.create ~rng:irng inet.Internet.graph in
    let stubs = Array.of_list (Internet.stubs inet) in
    let hosts =
      Array.init 300 (fun i ->
          let strategy =
            match i mod 3 with 0 -> Net.Single_homed | 1 -> Net.Multihomed | _ -> Net.Peering
          in
          let as_idx = stubs.(Rofl_util.Prng.int irng (Array.length stubs)) in
          (Net.join net ~as_idx ~strategy).Net.host)
    in
    let pick () = hosts.(Rofl_util.Prng.int irng (Array.length hosts)) in
    (net, Array.init 512 (fun _ -> (pick (), (pick ()).Net.id)))
  in
  let walk_i = ref 0 in
  (* One Peering host joining and leaving the default Internet after 2,000
     Peering joins, under bloom-filter peering with 128-entry caches (the
     fig8c setting): a random identifier each run, homed at one of 512
     rotating stubs.  Ring updates, the per-level route pricing and the
     cache fill along each predecessor route are all on this path. *)
  let join_net, join_stubs =
    let module Internet = Rofl_asgraph.Internet in
    let module Net = Rofl_inter.Net in
    let irng = named "inter-join" in
    let inet = Internet.generate irng Internet.default_params in
    let cfg =
      { Net.default_config with Net.peering_mode = Net.Bloom_filters; Net.cache_capacity = 128 }
    in
    let net = Net.create ~cfg ~rng:irng inet.Internet.graph in
    let stubs = Array.of_list (Internet.stubs inet) in
    let pick () = stubs.(Rofl_util.Prng.int irng (Array.length stubs)) in
    for _ = 1 to 2000 do
      ignore (Net.join net ~as_idx:(pick ()) ~strategy:Net.Peering)
    done;
    (net, Array.init 512 (fun _ -> pick ()))
  in
  let join_i = ref 0 in
  (* One keyed event scheduled at the engine's current time and dispatched
     by [run_until]: the heap push, the in-place pop and the dispatch.  1,023
     later events stay queued, so both sift through ten levels.  The clock
     does not move, so the row gates the queue path alone; a moving clock
     re-boxes the time once per distinct event time. *)
  let engine = Rofl_netsim.Engine.create ~exec:(fun _ () -> ()) in
  for seq = 0 to 1022 do
    Rofl_netsim.Engine.schedule_keyed engine ~time_ms:1e9 ~rail:1 ~seq ~arg:0 ()
  done;
  let dispatch_seq = ref 0 in
  let verify_cred = Rofl_crypto.Identity.credential_for id_a in
  let verify_rng = named "verify-handshake" in
  let grind_rng = named "grind-16" in
  let tests =
    [
      Test.make ~name:"id-distance"
        (Staged.stage (fun () -> ignore (Id.distance id_a id_b)));
      Test.make ~name:"id-between"
        (Staged.stage (fun () -> ignore (Id.between_incl id_a id_b id_a)));
      Test.make ~name:"id-closer-clockwise"
        (Staged.stage (fun () -> ignore (Id.closer_clockwise ~target:id_b id_a id_b)));
      Test.make ~name:"id-compare-dist"
        (Staged.stage (fun () -> ignore (Id.compare_dist id_a id_b id_b id_a)));
      Test.make ~name:"id-hash" (Staged.stage (fun () -> ignore (Id.hash id_a)));
      Test.make ~name:"ring-successor-2k"
        (Staged.stage (fun () ->
             let i = !succ_i land 511 in
             incr succ_i;
             ignore (Ring.cursor_gt (Array.unsafe_get probes i) ring)));
      Test.make ~name:"ring-successor-map-2k"
        (Staged.stage (fun () ->
             let i = !msucc_i land 511 in
             incr msucc_i;
             ignore (map_ring_successor map_ring (Array.unsafe_get probes i))));
      Test.make ~name:"ring-churn-2k"
        (Staged.stage (fun () ->
             let id = Array.unsafe_get probes (!churn_i land 511) in
             incr churn_i;
             Ring.add id 0 ring;
             Ring.remove id ring));
      Test.make ~name:"sha256-256B"
        (Staged.stage (fun () -> ignore (Rofl_crypto.Sha256.digest payload)));
      Test.make ~name:"sha256-digest"
        (Staged.stage (fun () -> ignore (Rofl_crypto.Sha256.digest one_block)));
      Test.make ~name:"spf-201-routers"
        (Staged.stage (fun () -> ignore (Rofl_linkstate.Linkstate.distance_hops ls 0 100)));
      Test.make ~name:"spf-price-warm"
        (Staged.stage (fun () ->
             ignore (Rofl_linkstate.Linkstate.price_hop_into ls 0 100 ~latency:price_reg 0)));
      Test.make ~name:"linkstate-reachable"
        (Staged.stage (fun () ->
             let i = !reach_i in
             reach_i := if i + 1 = reach_n then 0 else i + 1;
             ignore (Rofl_linkstate.Linkstate.reachable reach_ls i leaf)));
      Test.make ~name:"engine-dispatch"
        (Staged.stage (fun () ->
             let seq = !dispatch_seq in
             dispatch_seq := seq + 1;
             let now = Rofl_netsim.Engine.now engine in
             Rofl_netsim.Engine.schedule_keyed engine ~time_ms:now ~rail:0 ~seq ~arg:0 ();
             Rofl_netsim.Engine.run_until engine now));
      Test.make ~name:"spf-cold-as3967"
        (Staged.stage (fun () ->
             Rofl_linkstate.Linkstate.fail_link cold_ls leaf hub;
             ignore (Rofl_linkstate.Linkstate.distance_hops_count cold_ls 0 leaf);
             Rofl_linkstate.Linkstate.restore_link cold_ls leaf hub));
      Test.make ~name:"cache-best-match"
        (Staged.stage (fun () ->
             let i = !match_i land 511 in
             incr match_i;
             ignore
               (Rofl_core.Pointer_cache.best_match cache ~cur:id_a
                  ~target:(Array.unsafe_get probes i))));
      Test.make ~name:"cache-insert-evict"
        (Staged.stage (fun () ->
             let i = !evict_i land 511 in
             incr evict_i;
             Rofl_core.Pointer_cache.insert full_cache (Array.unsafe_get fresh i)));
      Test.make ~name:"inter-route-within"
        (Staged.stage (fun () ->
             let i = !route_i land 511 in
             incr route_i;
             let src, dst, level = Array.unsafe_get inter_pairs i in
             ignore (Rofl_inter.Level.route_within inter_ctx Rofl_inter.Level.Root src dst);
             ignore (Rofl_inter.Level.route_within inter_ctx level src dst)));
      Test.make ~name:"bgp-distance"
        (Staged.stage (fun () ->
             let i = !bgp_i land 511 in
             incr bgp_i;
             let src, dst, _ = Array.unsafe_get inter_pairs i in
             ignore (Rofl_asgraph.Policy.bgp_distance bgp ~src ~dst)));
      Test.make ~name:"inter-route"
        (Staged.stage (fun () ->
             let i = !walk_i land 511 in
             incr walk_i;
             let src, dst = Array.unsafe_get inter_walks i in
             ignore (Rofl_inter.Route.route_from inter_net ~src ~dst)));
      Test.make ~name:"inter-join"
        (Staged.stage (fun () ->
             let as_idx = Array.unsafe_get join_stubs (!join_i land 511) in
             incr join_i;
             let o = Rofl_inter.Net.join join_net ~as_idx ~strategy:Rofl_inter.Net.Peering in
             ignore (Rofl_inter.Net.remove_host join_net o.Rofl_inter.Net.host.Rofl_inter.Net.id)));
      Test.make ~name:"intra-lookup-as3967"
        (Staged.stage (fun () ->
             let i = !lookup_i land 511 in
             incr lookup_i;
             let from, target = Array.unsafe_get lookups i in
             ignore
               (Rofl_intra.Network.lookup net ~from ~target ~category:Rofl_netsim.Metrics.Data
                  ~use_cache:true)));
      Test.make ~name:"intra-join-as3967"
        (Staged.stage (fun () ->
             let id, gateway = Array.unsafe_get join_pairs (!intra_join_i land 511) in
             incr intra_join_i;
             ignore
               (Rofl_intra.Network.join_host join_intra ~gateway ~id ~cls:Rofl_core.Vnode.Stable);
             ignore (Rofl_intra.Network.leave_host join_intra id)));
      Test.make ~name:"lookup-owner-as3967"
        (Staged.stage (fun () ->
             let i = !owner_i land 511 in
             incr owner_i;
             let from, target = Array.unsafe_get owner_pairs i in
             ignore (Rofl_proto.Owner.lookup_owner owner_proto ~from target)));
      Test.make ~name:"proto-stabilize-as3967"
        (Staged.stage (fun () -> Rofl_proto.Proto.run_for stab_proto 50.0));
      (* Attack-lab rows: the defense's per-admission price (one full
         challenge/response residency handshake — what every verified join
         and failover promotion charges) and the attacker's per-draw price
         (one keypair minted and hashed while mining identifiers at an
         arc).  Gated so the verification path cannot quietly grow a
         per-admission allocation habit. *)
      Test.make ~name:"verify-handshake"
        (Staged.stage (fun () ->
             let c = Rofl_crypto.Identity.fresh_challenge verify_rng in
             let r = Rofl_crypto.Identity.respond verify_cred c in
             ignore (Rofl_crypto.Identity.check_response ~claimed:id_a c r)));
      Test.make ~name:"grind-16"
        (Staged.stage (fun () ->
             ignore
               (Rofl_crypto.Identity.grind grind_rng
                  ~accept:(fun _ -> false)
                  ~budget:16)));
    ]
  in
  let test = Test.make_grouped ~name:"rofl" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  (* [stabilize] (the default) runs [Gc.compact] before every sample; with
     the fixtures' live heap that eats the whole quota in compactions and
     leaves a degenerate run≈1 fit (every row ~130ns, every slope 0).  The
     run-predictor OLS already cancels GC noise across samples. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols minor_words raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl [] |> List.sort compare
  in
  let rows =
    List.map
      (fun name ->
        {
          name;
          ns_per_run = (match estimate clock_tbl name with Some e -> e | None -> nan);
          minor_words_per_run =
            (match estimate alloc_tbl name with Some e -> e | None -> nan);
        })
      names
  in
  print_endline "== Microbenchmarks (ns/run, minor words/run) ==";
  List.iter
    (fun r ->
      Printf.printf "%-40s %12.1f ns/run %10.2f w/run\n" r.name r.ns_per_run
        r.minor_words_per_run)
    rows;
  print_newline ();
  rows

(* ---------------- shard-scaling benchmark ---------------- *)

(* Throughput profile of the conservative-window coordinator on one fixed
   campaign workload, at 1 (the baseline row), 2 and 4 shards.  These are
   execution numbers only — the event fingerprint is printed per row and
   must be identical down the column, so a scaling win can never be bought
   with a divergent schedule. *)

type shard_row = {
  sh_shards : int;
  sh_windows : int;          (* synchronisation windows executed *)
  sh_events : int;           (* events executed, summed over shards *)
  sh_stall_s : float;        (* summed barrier-stall seconds *)
  sh_elapsed_s : float;      (* wall seconds inside run_until *)
  sh_events_per_s : float array; (* per shard: events / busy second *)
  sh_fingerprint : int;
}

let shard_bench quick =
  let module Prng = Rofl_util.Prng in
  let module Proto = Rofl_proto.Proto in
  let module Shard = Rofl_netsim.Shard in
  let module Isp = Rofl_topology.Isp in
  let hosts = if quick then 20_000 else 200_000 in
  let horizon_ms = 1_000.0 in
  let run shards =
    let isp = Isp.generate (Prng.create 4242) Isp.as3967 in
    let proto =
      Proto.create ~rng:(Prng.create 999)
        ~cfg:{ Proto.default_config with Proto.stabilize_period_ms = 250.0 }
        ~shards ~pool:(E.Common.pool ()) ~bootstrap_hosts:hosts isp.Isp.graph
    in
    Proto.start_stabilizer proto;
    Proto.run_for proto horizon_ms;
    Proto.stop_stabilizer proto;
    let coord = Proto.coordinator proto in
    let st = Shard.stats coord in
    {
      sh_shards = shards;
      sh_windows = st.Shard.windows;
      sh_events = Array.fold_left ( + ) 0 st.Shard.executed;
      sh_stall_s = st.Shard.stall_s;
      sh_elapsed_s = st.Shard.elapsed_s;
      sh_events_per_s =
        Array.map2
          (fun e b -> if b > 0.0 then float_of_int e /. b else 0.0)
          st.Shard.executed st.Shard.busy_s;
      sh_fingerprint = Shard.fingerprint coord;
    }
  in
  let rows = List.map run [ 1; 2; 4 ] in
  Printf.printf "== Shard scaling (%d bootstrap hosts, %.0f ms horizon) ==\n" hosts
    horizon_ms;
  List.iter
    (fun r ->
      Printf.printf
        "shards=%d  windows=%-6d events=%-9d stall=%6.2fs elapsed=%6.2fs  \
         ev/s per shard: [%s]  fingerprint=%016Lx\n"
        r.sh_shards r.sh_windows r.sh_events r.sh_stall_s r.sh_elapsed_s
        (String.concat "; "
           (Array.to_list (Array.map (Printf.sprintf "%.0f") r.sh_events_per_s)))
        (Int64.of_int r.sh_fingerprint))
    rows;
  (match rows with
   | base :: rest ->
     List.iter
       (fun r ->
         if r.sh_fingerprint <> base.sh_fingerprint then begin
           Printf.eprintf
             "shard bench: fingerprint DIVERGED at shards=%d (determinism bug)\n"
             r.sh_shards;
           exit 1
         end)
       rest
   | [] -> ());
  print_newline ();
  rows

(* ---------------- service-discovery throughput ---------------- *)

(* Resolutions/sec of the service layer's three hot paths over one placed
   directory: cache hits (local answers), cache misses (fused owner walks +
   record reads + cache installs, measured against a capacity-0 directory so
   every run actually walks), and the republish sweep.  As with the alpha
   target, correctness is gated before anything is timed: every resolution
   must carry the oracle-correct sign, hits must hit and misses must miss —
   a throughput number from a wrong resolver is worthless. *)

type services_row = {
  sv_name : string;
  sv_resolutions : int;           (* operations per timed run *)
  sv_ns_per_resolution : float;
  sv_words_per_resolution : float;
  sv_resolutions_per_s : float;
}

let services_bench (scale : E.Common.scale) quick =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Isp = Rofl_topology.Isp in
  let module Proto = Rofl_proto.Proto in
  let module Directory = Rofl_services.Directory in
  let module Resolver = Rofl_services.Resolver in
  let gate_fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "services bench: CORRECTNESS GATE FAILED: %s\n" s;
        exit 1)
      fmt
  in
  let rng = Rofl_util.Prng.create (scale.E.Common.seed + 31) in
  let profile = if quick then Isp.as3967 else Isp.as1239 in
  let profile =
    if List.mem profile scale.E.Common.isps then profile
    else List.hd scale.E.Common.isps
  in
  let isp = Isp.generate rng profile in
  let proto =
    Proto.create
      ~rng:(Rofl_util.Prng.create (scale.E.Common.seed + 32))
      ~bootstrap_hosts:(if quick then 2_000 else 10_000)
      isp.Isp.graph
  in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let services = if quick then 200 else 400 in
  let providers = 2 in
  let routers = Rofl_topology.Graph.n isp.Isp.graph in
  let make_dir capacity =
    let dir =
      Directory.create ~proto ~routers ~hint:(services * providers)
        {
          Directory.default_config with
          Directory.cache =
            { Resolver.default_config with Resolver.capacity };
        }
    in
    for rank = 1 to services do
      let service = Id.random (Rofl_util.Prng.create (Hashtbl.hash (rank, 0x5e1))) in
      for j = 0 to providers - 1 do
        ignore
          (Directory.register dir ~service ~provider:(Id.random rng)
             ~origin:gateways.(Hashtbl.hash (rank, j) mod Array.length gateways))
      done
    done;
    (* Place every record through the owner walk (synchronous pure-read
       walks; no engine time needed at a quiescent ring). *)
    ignore (Directory.republish_due dir ~now:0.0);
    dir
  in
  let dir_hit = make_dir Resolver.default_config.Resolver.capacity in
  let dir_miss = make_dir 0 in
  let total = if quick then 2048 else 8192 in
  let from =
    Array.init total (fun k -> gateways.(k * 13 mod Array.length gateways))
  in
  let svcs =
    Array.init total (fun k ->
        Id.random (Rofl_util.Prng.create (Hashtbl.hash ((k mod services) + 1, 0x5e1))))
  in
  (* Warm the hit directory's caches, then gate both paths. *)
  Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs;
  Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs;
  for k = 0 to total - 1 do
    if not (Directory.res_hit dir_hit k) then
      gate_fail "warmed resolution %d missed the cache" k;
    if not (Directory.res_ok dir_hit k) then
      gate_fail "hit resolution %d disagrees with the intent oracle" k
  done;
  Directory.resolve_batch dir_miss ~now:0.0 ~n:total ~from ~services:svcs;
  for k = 0 to total - 1 do
    if Directory.res_hit dir_miss k then
      gate_fail "capacity-0 resolution %d hit a cache" k;
    if not (Directory.res_ok dir_miss k) then
      gate_fail "miss resolution %d disagrees with the intent oracle" k
  done;
  let intents = Directory.intent_count dir_hit in
  let tests =
    [
      Test.make ~name:"svc-resolve-hit"
        (Staged.stage (fun () ->
             Directory.resolve_batch dir_hit ~now:0.0 ~n:total ~from ~services:svcs));
      Test.make ~name:"svc-resolve-miss"
        (Staged.stage (fun () ->
             Directory.resolve_batch dir_miss ~now:0.0 ~n:total ~from ~services:svcs));
      Test.make ~name:"svc-republish"
        (Staged.stage (fun () -> ignore (Directory.republish_all dir_hit ~now:0.0)));
    ]
  in
  let ops name = if name = "svc-republish" then intents else total in
  let test = Test.make_grouped ~name:"services" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols minor_words raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl []
    |> List.sort compare
    |> List.map (fun name ->
           let short =
             match String.index_opt name '/' with
             | Some i -> String.sub name (i + 1) (String.length name - i - 1)
             | None -> name
           in
           let n = float_of_int (ops short) in
           let ns_run = match estimate clock_tbl name with Some e -> e | None -> nan in
           let w_run = match estimate alloc_tbl name with Some e -> e | None -> nan in
           {
             sv_name = short;
             sv_resolutions = ops short;
             sv_ns_per_resolution = ns_run /. n;
             sv_words_per_resolution = w_run /. n;
             sv_resolutions_per_s = (if ns_run > 0.0 then n /. (ns_run *. 1e-9) else nan);
           })
  in
  Printf.printf
    "== Service-discovery throughput (%s, %d services x %d providers, %d \
     resolutions per run, gates passed) ==\n"
    profile.Isp.profile_name services providers total;
  List.iter
    (fun r ->
      Printf.printf "%-24s %12.0f resolutions/s %10.1f ns/resolution %10.3f w/resolution\n"
        r.sv_name r.sv_resolutions_per_s r.sv_ns_per_resolution
        r.sv_words_per_resolution)
    rows;
  print_newline ();
  rows

(* ---------------- alpha-parallel lookup throughput ---------------- *)

(* Lookups/sec of [Owner.walk_owner] at α ∈ {1, 2, 4} over one
   bootstrapped ring with pointer caches enabled, so the diversified branch
   starts are live.  α=1 is gated to the sequential [Owner.lookup_owner]
   verdicts and to the recorded owner-walk goldens ({!Owner_golden}: owner,
   hops, latency), and α>1 to the sequential verdict — a throughput number
   from a wrong engine is worthless.  Rows report the
   duplicate-work price alongside the rate: wasted ring hops per lookup is
   what redundancy costs, and the gate keeps it a tracked number. *)

type alpha_row = {
  al_name : string;
  al_alpha : int;
  al_lookups : int;              (* lookups per timed run *)
  al_ns_per_lookup : float;
  al_words_per_lookup : float;
  al_lookups_per_s : float;
  al_wasted_per_lookup : float;  (* losing-branch ring hops per lookup *)
}

let alpha_bench (scale : E.Common.scale) quick =
  let open Bechamel in
  let open Toolkit in
  let module Id = Rofl_idspace.Id in
  let module Isp = Rofl_topology.Isp in
  let module Proto = Rofl_proto.Proto in
  let module Owner = Rofl_proto.Owner in
  let gate_fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "alpha bench: EQUIVALENCE GATE FAILED: %s\n" s;
        exit 1)
      fmt
  in
  let rng = Rofl_util.Prng.create (scale.E.Common.seed + 91) in
  let profile = if quick then Isp.as3967 else Isp.as1239 in
  let profile =
    if List.mem profile scale.E.Common.isps then profile
    else List.hd scale.E.Common.isps
  in
  let isp = Isp.generate rng profile in
  let proto =
    Proto.create
      ~rng:(Rofl_util.Prng.create (scale.E.Common.seed + 92))
      ~cfg:{ Proto.default_config with Proto.pcache_capacity = 8 }
      ~bootstrap_hosts:(if quick then 2_000 else 10_000)
      isp.Isp.graph
  in
  let pn = Rofl_topology.Graph.n isp.Isp.graph in
  let members = Array.of_list (Proto.members proto) in
  let total = if quick then 2048 else 8192 in
  let from = Array.init total (fun k -> k * 31 mod pn) in
  let targets =
    Array.init total (fun k ->
        if k mod 4 = 3 then Id.random rng
        else members.(k * 11 mod Array.length members))
  in
  (* Gate 1: the recorded goldens reproduce at α=1 and α=3. *)
  let gt, gfrom, gtargets = Owner_golden.ring () in
  List.iter
    (fun (alpha, expect) ->
      let got = Owner_golden.summary gt ~alpha ~from:gfrom ~targets:gtargets in
      if got <> expect then
        gate_fail "alpha=%d golden diverges:\n  got    %s\n  expect %s" alpha got
          expect)
    Owner_golden.expected;
  (* Gate 2: any α agrees with the sequential verdict — every lookup at
     α=1 (with no duplicate work), the first [gate] at α>1. *)
  let gate = min 256 total in
  let walks = List.map (fun alpha -> (alpha, Owner.owner_walk ~alpha)) [ 1; 2; 4 ] in
  List.iter
    (fun (alpha, (w : Owner.owner_walk)) ->
      for k = 0 to (if alpha = 1 then total else gate) - 1 do
        Owner.walk_owner proto w ~from:from.(k) ~target:targets.(k);
        if alpha = 1 && w.w_wasted_hops <> 0 then
          gate_fail "alpha=1 lookup %d wasted %d hops" k w.w_wasted_hops;
        let same =
          match Owner.lookup_owner proto ~from:from.(k) targets.(k) with
          | Some owner -> w.w_winner >= 0 && Id.equal owner w.w_owner
          | None -> w.w_winner < 0
        in
        if not same then
          gate_fail "alpha=%d verdict diverges from sequential at lookup %d"
            alpha k
      done)
    walks;
  (* Duplicate-work price, measured outside the timed loop: one full pass
     per α, the losing-branch ring hops divided down to per-lookup. *)
  let walk_all (w : Owner.owner_walk) =
    let wasted = ref 0 in
    for k = 0 to total - 1 do
      Owner.walk_owner proto w ~from:from.(k) ~target:targets.(k);
      wasted := !wasted + w.w_wasted_hops
    done;
    !wasted
  in
  let wasted_per_lookup =
    List.map
      (fun (alpha, w) -> (alpha, float_of_int (walk_all w) /. float_of_int total))
      walks
  in
  Printf.printf
    "equivalence gates passed: %d goldens, %d verdicts at alpha=1, %d per \
     alpha>1\n"
    (List.length Owner_golden.expected) total gate;
  let tests =
    List.map
      (fun (alpha, w) ->
        Test.make ~name:(Printf.sprintf "alpha-%d" alpha)
          (Staged.stage (fun () -> ignore (walk_all w))))
      walks
  in
  let test = Test.make_grouped ~name:"alpha" ~fmt:"%s/%s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false () in
  let raw = Benchmark.all cfg instances test in
  let clock_tbl = Analyze.all ols Instance.monotonic_clock raw in
  let alloc_tbl = Analyze.all ols minor_words raw in
  let estimate tbl name =
    match Hashtbl.find_opt tbl name with
    | Some o -> (match Analyze.OLS.estimates o with Some (e :: _) -> Some e | _ -> None)
    | None -> None
  in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_tbl []
    |> List.sort compare
    |> List.map (fun name ->
           let short =
             match String.index_opt name '/' with
             | Some i -> String.sub name (i + 1) (String.length name - i - 1)
             | None -> name
           in
           let alpha =
             match String.rindex_opt short '-' with
             | Some i ->
               (match
                  int_of_string_opt
                    (String.sub short (i + 1) (String.length short - i - 1))
                with
               | Some a -> a
               | None -> 1)
             | None -> 1
           in
           let ns_run = match estimate clock_tbl name with Some e -> e | None -> nan in
           let w_run = match estimate alloc_tbl name with Some e -> e | None -> nan in
           let l = float_of_int total in
           {
             al_name = short;
             al_alpha = alpha;
             al_lookups = total;
             al_ns_per_lookup = ns_run /. l;
             al_words_per_lookup = w_run /. l;
             al_lookups_per_s = (if ns_run > 0.0 then l /. (ns_run *. 1e-9) else nan);
             al_wasted_per_lookup =
               (match List.assoc_opt alpha wasted_per_lookup with
               | Some w -> w
               | None -> nan);
           })
  in
  Printf.printf
    "== Alpha-parallel lookup throughput (%s, %d lookups per run, gates \
     passed) ==\n"
    profile.Isp.profile_name total;
  List.iter
    (fun r ->
      Printf.printf
        "%-24s %12.0f lookups/s %10.1f ns/lookup %10.3f w/lookup %8.2f wasted \
         hops/lookup\n"
        r.al_name r.al_lookups_per_s r.al_ns_per_lookup r.al_words_per_lookup
        r.al_wasted_per_lookup)
    rows;
  print_newline ();
  rows

(* ---------------- driver ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

let write_bench_json ~path ~quick ~jobs ~seed timings shard_rows micro_rows
    services_rows alpha_rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"scale\": \"%s\",\n" (if quick then "quick" else "full");
  Printf.fprintf oc "  \"jobs\": %d,\n" jobs;
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n"
    (List.fold_left (fun acc (_, c) -> acc +. c.seconds) 0.0 timings);
  Printf.fprintf oc "  \"targets\": {\n";
  List.iteri
    (fun i (name, c) ->
      Printf.fprintf oc
        "    \"%s\": {\"seconds\": %.3f, \"minor_words\": %d, \"major_words\": %d, \
         \"gc_majors\": %d}%s\n"
        (json_escape name) c.seconds c.minor_words c.major_words c.gc_majors
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"shards\": [\n";
  List.iteri
    (fun i (r : shard_row) ->
      Printf.fprintf oc
        "    {\"shards\": %d, \"windows\": %d, \"events\": %d, \"stall_s\": %.3f, \
         \"elapsed_s\": %.3f, \"events_per_s\": [%s], \"fingerprint\": \"%016Lx\"}%s\n"
        r.sh_shards r.sh_windows r.sh_events r.sh_stall_s r.sh_elapsed_s
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.0f") r.sh_events_per_s)))
        (Int64.of_int r.sh_fingerprint)
        (if i = List.length shard_rows - 1 then "" else ","))
    shard_rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"micro\": {\n";
  List.iteri
    (fun i (r : micro_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"ns_per_run\": %s, \"minor_words_per_run\": %s}%s\n"
        (json_escape r.name) (json_float r.ns_per_run)
        (json_float r.minor_words_per_run)
        (if i = List.length micro_rows - 1 then "" else ","))
    micro_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"services\": {\n";
  List.iteri
    (fun i (r : services_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"resolutions\": %d, \"resolutions_per_s\": %s, \
         \"ns_per_resolution\": %s, \"minor_words_per_resolution\": %s}%s\n"
        (json_escape r.sv_name) r.sv_resolutions
        (json_float r.sv_resolutions_per_s)
        (json_float r.sv_ns_per_resolution)
        (json_float r.sv_words_per_resolution)
        (if i = List.length services_rows - 1 then "" else ","))
    services_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"alpha\": {\n";
  List.iteri
    (fun i (r : alpha_row) ->
      Printf.fprintf oc
        "    \"%s\": {\"alpha\": %d, \"lookups\": %d, \"lookups_per_s\": %s, \
         \"ns_per_lookup\": %s, \"minor_words_per_lookup\": %s, \
         \"wasted_hops_per_lookup\": %s}%s\n"
        (json_escape r.al_name) r.al_alpha r.al_lookups
        (json_float r.al_lookups_per_s)
        (json_float r.al_ns_per_lookup)
        (json_float r.al_words_per_lookup)
        (json_float r.al_wasted_per_lookup)
        (if i = List.length alpha_rows - 1 then "" else ","))
    alpha_rows;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* ---------------- allocation-regression gate ---------------- *)

(* BENCH.baseline.json holds the blessed [minor_words_per_run] per micro
   row.  The format is the "micro" object of BENCH.json, so the file can be
   refreshed by copying rows out of a trusted run.  Parsed line-by-line
   against the exact shape [write_bench_json] emits — no JSON dependency. *)

let find_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let field_value line field =
  match find_substring line field with
  | None -> None
  | Some i ->
    let start = i + String.length field in
    let rest = String.sub line start (String.length line - start) in
    let stop =
      match (String.index_opt rest ',', String.index_opt rest '}') with
      | Some a, Some b -> min a b
      | Some a, None | None, Some a -> a
      | None, None -> String.length rest
    in
    float_of_string_opt (String.trim (String.sub rest 0 stop))

(* Returns (micro rows: name * words/run, services rows: name *
   words/resolution * resolutions/s, alpha rows: name * words/lookup *
   lookups/s).  The row kinds are told apart by which fields the line
   carries, so one baseline file can hold all sections verbatim. *)
let baseline_rows path =
  let ic = open_in path in
  let micro = ref [] and services = ref [] in
  let alpha = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 1 && line.[0] = '"' then begin
         match String.index_from_opt line 1 '"' with
         | None -> ()
         | Some close -> (
           let name = String.sub line 1 (close - 1) in
           match
             ( field_value line "\"minor_words_per_lookup\":",
               field_value line "\"lookups_per_s\":" )
           with
           | Some w, Some rate -> alpha := (name, w, rate) :: !alpha
           | _ -> (
             match
               ( field_value line "\"minor_words_per_resolution\":",
                 field_value line "\"resolutions_per_s\":" )
             with
             | Some w, Some rate -> services := (name, w, rate) :: !services
             | _ -> (
               match field_value line "\"minor_words_per_run\":" with
               | Some f -> micro := (name, f) :: !micro
               | None -> ())))
       end
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !micro, List.rev !services, List.rev !alpha)

(* Fail when a gated row allocates >25% more minor words per run than the
   baseline.  The +0.5-word slack keeps allocation-free rows (baseline 0)
   from tripping on OLS fit noise while still catching any real box: the
   smallest possible allocation is a 2-word block, well above the slack. *)
let check_alloc ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base) ->
      match List.find_opt (fun (r : micro_row) -> r.name = name) rows with
      | None ->
        Printf.printf "alloc-gate: %-36s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let limit = (base *. 1.25) +. 0.5 in
        let ok = r.minor_words_per_run <= limit in
        Printf.printf
          "alloc-gate: %-36s %9.2f w/run (baseline %8.2f, limit %8.2f) %s\n"
          name r.minor_words_per_run base limit
          (if ok then "ok" else "FAIL");
        if not ok then incr failures)
    baseline;
  !failures

(* The throughput side of the gate: a services row may not allocate more
   than the micro-style words limit per resolution (25% + slack), and may
   not fall below half the baseline's resolutions/sec.  Wall-clock on
   shared CI runners is noisy, so the 50% margin catches a lost
   optimisation (batching regressions cost integer factors), not scheduler
   jitter. *)
let check_services ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base_w, base_rate) ->
      match List.find_opt (fun (r : services_row) -> r.sv_name = name) rows with
      | None ->
        Printf.printf "services-gate: %-24s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let w_limit = (base_w *. 1.25) +. 0.5 in
        let rate_floor = base_rate *. 0.5 in
        let w_ok = r.sv_words_per_resolution <= w_limit in
        let rate_ok = r.sv_resolutions_per_s >= rate_floor in
        Printf.printf
          "services-gate: %-24s %8.3f w/resolution (limit %8.3f) %12.0f \
           resolutions/s (floor %12.0f) %s\n"
          name r.sv_words_per_resolution w_limit r.sv_resolutions_per_s rate_floor
          (if w_ok && rate_ok then "ok"
           else if w_ok then "FAIL(throughput)"
           else "FAIL(alloc)");
        if not (w_ok && rate_ok) then incr failures)
    baseline;
  !failures

(* Alpha rows gate words/lookup (25% + slack) and a 50%-of-baseline
   lookups/sec floor, exactly like the services rows: losing the allocation-free
   walk or the register-reuse discipline at α>1 costs integer factors, which
   the margin catches through CI scheduler noise. *)
let check_alpha ~baseline rows =
  let failures = ref 0 in
  List.iter
    (fun (name, base_w, base_rate) ->
      match List.find_opt (fun (r : alpha_row) -> r.al_name = name) rows with
      | None ->
        Printf.printf "alpha-gate: %-24s MISSING from this run\n" name;
        incr failures
      | Some r ->
        let w_limit = (base_w *. 1.25) +. 0.5 in
        let rate_floor = base_rate *. 0.5 in
        let w_ok = r.al_words_per_lookup <= w_limit in
        let rate_ok = r.al_lookups_per_s >= rate_floor in
        Printf.printf
          "alpha-gate: %-24s %8.3f w/lookup (limit %8.3f) %12.0f lookups/s \
           (floor %12.0f) %s\n"
          name r.al_words_per_lookup w_limit r.al_lookups_per_s rate_floor
          (if w_ok && rate_ok then "ok"
           else if w_ok then "FAIL(throughput)"
           else "FAIL(alloc)");
        if not (w_ok && rate_ok) then incr failures)
    baseline;
  !failures

let () =
  Rofl_util.Logging.setup ();
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let args = List.filter (fun a -> a <> "--quick") args in
  let csv_dir = ref None in
  let rec strip_csv = function
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      strip_csv rest
    | x :: rest -> x :: strip_csv rest
    | [] -> []
  in
  let args = strip_csv args in
  let check_alloc_path = ref None in
  let rec strip_check = function
    | "--check-alloc" :: path :: rest ->
      check_alloc_path := Some path;
      strip_check rest
    | x :: rest -> x :: strip_check rest
    | [] -> []
  in
  let args = strip_check args in
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j -> E.Common.set_jobs j
       | None ->
         Printf.eprintf "bad --jobs value %S (expected an integer)\n" n;
         exit 2);
      strip_jobs rest
    | x :: rest -> x :: strip_jobs rest
    | [] -> []
  in
  let args = strip_jobs args in
  let scale = if quick then E.Common.quick else E.Common.full in
  let wanted =
    match args with
    | [] ->
      (* Every registered experiment but the campaign labs CI runs on their
         own ("services" below is this harness's throughput target). *)
      List.filter
        (fun n -> not (List.mem n [ "alpha-frontier"; "services"; "megachurn"; "attack" ]))
        (List.map (fun e -> e.E.Registry.name) E.Registry.all)
      @ [ "shards"; "micro"; "services"; "alpha" ]
    | _ -> args
  in
  Printf.printf "ROFL reproduction benchmarks (%s scale, seed %d, %d jobs)\n\n"
    (if quick then "quick" else "full")
    scale.E.Common.seed (E.Common.jobs ());
  let timings = ref [] in
  let micro_rows = ref [] in
  let shard_rows = ref [] in
  let services_rows = ref [] in
  let alpha_rows = ref [] in
  List.iter
    (fun name ->
      if name = "micro" then begin
        let rows, cost = measure micro in
        micro_rows := rows;
        timings := ("micro", cost) :: !timings
      end
      else if name = "shards" then begin
        let rows, cost = measure (fun () -> shard_bench quick) in
        shard_rows := rows;
        timings := ("shards", cost) :: !timings
      end
      else if name = "services" then begin
        let rows, cost = measure (fun () -> services_bench scale quick) in
        services_rows := rows;
        timings := ("services", cost) :: !timings
      end
      else if name = "alpha" then begin
        let rows, cost = measure (fun () -> alpha_bench scale quick) in
        alpha_rows := rows;
        timings := ("alpha", cost) :: !timings
      end
      else begin
        match E.Registry.find name with
        | Some e ->
          Printf.printf "--- %s: %s ---\n" name e.E.Registry.doc;
          let tables, cost = measure (fun () -> e.E.Registry.run scale) in
          List.iter Table.print tables;
          (match !csv_dir with
           | Some dir ->
             List.iter (fun t -> ignore (Table.save_csv t ~dir)) tables
           | None -> ());
          timings := (name, cost) :: !timings;
          Printf.printf "(%s took %.1fs, %.1fM minor words, %d major GCs)\n\n" name
            cost.seconds
            (float_of_int cost.minor_words /. 1e6)
            cost.gc_majors
        | None -> Printf.printf "unknown target %S (see bench/main.ml)\n" name
      end)
    wanted;
  write_bench_json ~path:"BENCH.json" ~quick ~jobs:(E.Common.jobs ())
    ~seed:scale.E.Common.seed (List.rev !timings) !shard_rows !micro_rows
    !services_rows !alpha_rows;
  match !check_alloc_path with
  | None -> ()
  | Some path ->
    if !micro_rows = [] then begin
      Printf.eprintf "--check-alloc needs the micro target in the run\n";
      exit 2
    end;
    let baseline, sv_baseline, al_baseline = baseline_rows path in
    if baseline = [] then begin
      Printf.eprintf "--check-alloc: no rows parsed from %s (one \"name\": {...\"minor_words_per_run\": N} per line)\n" path;
      exit 2
    end;
    let failures = check_alloc ~baseline !micro_rows in
    (* Services and alpha rows are gated only when their target ran:
       micro-only CI invocations with a combined baseline file must stay
       valid. *)
    let failures =
      if !services_rows = [] then begin
        if sv_baseline <> [] then
          Printf.printf
            "services-gate: skipped (%d baseline row(s), services target not run)\n"
            (List.length sv_baseline);
        failures
      end
      else failures + check_services ~baseline:sv_baseline !services_rows
    in
    let failures =
      if !alpha_rows = [] then begin
        if al_baseline <> [] then
          Printf.printf
            "alpha-gate: skipped (%d baseline row(s), alpha target not run)\n"
            (List.length al_baseline);
        failures
      end
      else failures + check_alpha ~baseline:al_baseline !alpha_rows
    in
    if failures > 0 then begin
      Printf.eprintf "alloc-gate: %d row(s) regressed vs %s\n" failures path;
      exit 1
    end
