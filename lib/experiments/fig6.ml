module Table = Rofl_util.Table
module Stats = Rofl_util.Stats
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Vnode = Rofl_core.Vnode
module Metrics = Rofl_netsim.Metrics
module Ospf = Rofl_baselines.Ospf_hosts
module Cmu = Rofl_baselines.Cmu_ethernet

let fig6a (scale : Common.scale) =
  let t =
    Table.create ~title:"Fig 6a: stretch vs pointer-cache size [entries/router]"
      ~columns:
        ("cache"
        :: List.map (fun p -> "ROFL-" ^ p.Isp.profile_name) scale.Common.isps)
  in
  (* The cache is filled from control traffic during joins, so each cache
     size is a fresh network construction (§6.1).  Every (cache, ISP) point
     is independent — its own network, its own seeds — so the whole grid
     fans out over the domain pool and rows are assembled back in order. *)
  let hosts = max 100 (scale.Common.intra_hosts / 2) in
  let points =
    List.concat_map
      (fun cache -> List.map (fun profile -> (cache, profile)) scale.Common.isps)
      scale.Common.cache_grid
  in
  let cells =
    Common.parallel_map
      (fun (cache, profile) ->
        let cfg = { Network.default_config with Network.cache_capacity = cache } in
        let run : Common.intra_run =
          Common.build_intra ~cfg ~seed:(scale.Common.seed + cache) ~hosts profile
        in
        let rng = Prng.create (scale.Common.seed + cache + 99) in
        let samples =
          Common.mean_stretch_intra run ~pairs:scale.Common.intra_pairs ~rng
        in
        if samples = [] then "-" else Table.fmt_float (Stats.mean samples))
      points
  in
  let width = List.length scale.Common.isps in
  List.iteri
    (fun i cache ->
      let row = List.filteri (fun j _ -> j / width = i) cells in
      Table.add_row t (string_of_int cache :: row))
    scale.Common.cache_grid;
  [ t ]

let load_ranks n =
  List.filter (fun r -> r < n) [ 0; 1; 2; 5; 10; 20; 50; 100; 150; 200; 300; 450; 600 ]

let fig6b (scale : Common.scale) =
  let tables =
    (* Each profile measures over its own memoised population; the tasks
       share no mutable state, so they run across the pool. *)
    Common.parallel_map
      (fun profile ->
        let (run : Common.intra_run) = Common.default_intra_run scale profile in
        let net = run.Common.net in
        let rng = Prng.create (scale.Common.seed + 4242) in
        let gateway = Common.gateway_sampler run in
        (* Fresh counters so the loads below are data traffic only. *)
        Metrics.reset net.Network.metrics;
        let ospf = Ospf.create run.Common.isp.Isp.graph in
        for _ = 1 to scale.Common.intra_pairs do
          let src = gateway () in
          let dst = Prng.sample rng run.Common.ids in
          let d = Forward.route_packet net ~from:src ~dest:dst in
          (match d.Forward.delivered_to with
           | Some (vn : Vnode.t) ->
             ignore (Ospf.route ospf ~src ~dst:vn.Vnode.hosted_at)
           | None -> ())
        done;
        let rofl_load = Metrics.router_load net.Network.metrics in
        let rofl_total = float_of_int (max 1 (Array.fold_left ( + ) 0 rofl_load)) in
        let ospf_frac = Ospf.load_fractions ospf in
        (* Rank routers by OSPF load, descending — the paper's x-axis. *)
        let order = Array.init (Array.length ospf_frac) (fun i -> i) in
        Array.sort (fun a b -> compare ospf_frac.(b) ospf_frac.(a)) order;
        let t =
          Table.create
            ~title:
              (Printf.sprintf "Fig 6b: load balance, %s (routers ranked by OSPF load)"
                 profile.Isp.profile_name)
            ~columns:[ "rank"; "OSPF frac"; "ROFL frac" ]
        in
        List.iter
          (fun rank ->
            let r = order.(rank) in
            Table.add_row t
              [
                string_of_int rank;
                Table.fmt_float ospf_frac.(r);
                Table.fmt_float (float_of_int rofl_load.(r) /. rofl_total);
              ])
          (load_ranks (Array.length order));
        t)
      scale.Common.isps
  in
  tables

let fig6c (scale : Common.scale) =
  let runs =
    Common.parallel_map (fun p -> (p, Common.default_intra_run scale p)) scale.Common.isps
  in
  let marks = Common.log_checkpoints scale.Common.intra_hosts in
  let t =
    Table.create
      ~title:"Fig 6c: avg router memory [ring-state entries] vs IDs"
      ~columns:
        ("IDs"
        :: (List.map (fun (p, _) -> "ROFL-" ^ p.Isp.profile_name) runs
           @ [ "CMU-ETH (entries)" ]))
  in
  List.iter
    (fun mark ->
      let row =
        string_of_int mark
        :: (List.map
              (fun (_, run) ->
                match
                  List.find_opt (fun (n, _, _) -> n = mark) run.Common.checkpoints
                with
                | Some (_, _, entries) -> Table.fmt_float entries
                | None -> "-")
              runs
           @ [ string_of_int mark ])
      in
      Table.add_row t row)
    marks;
  (* Hosting-state bits at full population, per ISP (the 1.3–10.5 Mbit
     figures of §6.2). *)
  let h =
    Table.create ~title:"Fig 6c (cont.): memory comparison at full population"
      ~columns:[ "ISP"; "ROFL entries/router"; "CMU entries/router"; "CMU/ROFL" ]
  in
  List.iter
    (fun ((p : Isp.profile), (run : Common.intra_run)) ->
      let rofl = Network.avg_router_state_entries run.Common.net in
      let cmu = Cmu.create run.Common.isp.Isp.graph in
      Cmu.join_hosts cmu scale.Common.intra_hosts;
      let cmu_entries = float_of_int (Cmu.entries_per_router cmu) in
      Table.add_row h
        [
          p.Isp.profile_name;
          Table.fmt_float rofl;
          Table.fmt_float cmu_entries;
          Table.fmt_float (cmu_entries /. Float.max rofl 1.0);
        ])
    runs;
  [ t; h ]
