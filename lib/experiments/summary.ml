module Table = Rofl_util.Table
module Stats = Rofl_util.Stats
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Network = Rofl_intra.Network
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Asfailure = Rofl_inter.Asfailure
module Internet = Rofl_asgraph.Internet
module Metrics = Rofl_netsim.Metrics
module Trace = Rofl_routing.Trace

let pct samples p = if samples = [] then nan else Stats.percentile samples p

let summary (scale : Common.scale) =
  let t =
    Table.create ~title:"Summary (paper §6.4): paper value vs measured"
      ~columns:[ "metric"; "paper"; "measured"; "note" ]
  in
  (* --- intradomain --- *)
  let intra_runs =
    Common.parallel_map (fun p -> Common.default_intra_run scale p) scale.Common.isps
  in
  let all_join_msgs =
    List.concat_map (fun r -> List.map float_of_int r.Common.join_msgs) intra_runs
  in
  let all_join_lat = List.concat_map (fun r -> r.Common.join_latency) intra_runs in
  Table.add_row t
    [
      "intra join overhead (p95, pkts)";
      "< 45";
      Table.fmt_float (pct all_join_msgs 95.0);
      "Fig 5b";
    ];
  Table.add_row t
    [
      "intra join latency (p95, ms)";
      "< 40";
      Table.fmt_float (pct all_join_lat 95.0);
      "Fig 5c";
    ];
  (* Stretch with a large cache (the paper's 9 Mbit ≈ 70k entries). *)
  (match scale.Common.isps with
   | profile :: _ ->
     let cache = List.fold_left max 0 scale.Common.cache_grid in
     let cfg = { Network.default_config with Network.cache_capacity = cache } in
     let run : Common.intra_run =
       Common.build_intra ~cfg ~seed:scale.Common.seed
         ~hosts:(max 100 (scale.Common.intra_hosts / 2)) profile
     in
     let rng = Prng.create (scale.Common.seed + 3) in
     let samples =
       Common.mean_stretch_intra run ~pairs:scale.Common.intra_pairs ~rng
     in
     Table.add_row t
       [
         "intra stretch @ large cache";
         "1.2 - 2";
         Table.fmt_float (Stats.mean samples);
         Printf.sprintf "%s, %d entries/router" profile.Isp.profile_name cache;
       ]
   | [] -> ());
  (* --- interdomain --- *)
  let join_mean strategy =
    let run =
      Common.build_inter ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
        ~strategy scale.Common.inter_params
    in
    Stats.mean (List.map float_of_int run.Common.lookup_msgs)
  in
  let eph, single, multi, peering =
    match
      Common.parallel_map join_mean
        [ Net.Ephemeral; Net.Single_homed; Net.Multihomed; Net.Peering ]
    with
    | [ e; s; m; p ] -> (e, s, m, p)
    | _ -> assert false
  in
  Table.add_row t
    [ "inter ephemeral join (pkts)"; "~14"; Table.fmt_float eph; "Fig 8a" ];
  Table.add_row t
    [ "inter single-homed join (pkts)"; "~75-80"; Table.fmt_float single; "Fig 8a" ];
  Table.add_row t
    [ "inter rec-multihomed join (pkts)"; "~100"; Table.fmt_float multi; "Fig 8a" ];
  Table.add_row t
    [ "inter peering join (pkts)"; "~300-445"; Table.fmt_float peering; "Fig 8a" ];
  (* Stretch with fingers. *)
  (match scale.Common.finger_grid with
   | budget :: _ ->
     let cfg = { Net.default_config with Net.finger_budget = budget } in
     let run =
       Common.build_inter ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
         ~strategy:Net.Multihomed scale.Common.inter_params
     in
     let rng = Prng.create (scale.Common.seed + 5) in
     let samples = ref [] in
     for _ = 1 to scale.Common.inter_pairs do
       let a = Prng.sample rng run.Common.hosts_arr in
       let b = Prng.sample rng run.Common.hosts_arr in
       match Route.stretch_vs_bgp run.Common.net ~src:a ~dst:b.Net.id with
       | Some s -> samples := s :: !samples
       | None -> ()
     done;
     Table.add_row t
       [
         Printf.sprintf "inter stretch @ %d fingers" budget;
         "2.8 (60f) / 2.3 (160f)";
         Table.fmt_float (Stats.mean !samples);
         "Fig 8b";
       ]
   | [] -> ());
  (* The inter per-hop mix and the stub failure run on a fingered network
     (the paper's operating point; finger shortcuts keep transit walks off
     random stubs); the failure changes it, so it gets a build of its own. *)
  let cfg = { Net.default_config with Net.finger_budget = 160 } in
  let mix_run =
    Common.build_inter ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
      ~strategy:Net.Multihomed scale.Common.inter_params
  in
  (* Per-hop anatomy of the walks (trace instrumentation; no paper value):
     how much of the forwarding work is ring state vs cache shortcuts vs
     peering-filter crossings and reversals. *)
  let fmt_mix mix =
    String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) mix)
  in
  (match intra_runs with
   | run :: _ when Array.length run.Common.ids > 0 ->
     let rng = Prng.create (scale.Common.seed + 7) in
     let gateway = Common.gateway_sampler run in
     let traces = ref [] in
     for _ = 1 to min 200 scale.Common.intra_pairs do
       let dst = Prng.sample rng run.Common.ids in
       let r =
         Network.lookup ~trace:(Trace.builder ()) run.Common.net
           ~from:(gateway ()) ~target:dst ~category:Metrics.Data ~use_cache:true
       in
       traces := r.Network.trace :: !traces
     done;
     Table.add_row t
       [ "intra per-hop mix"; "-"; fmt_mix (Common.hop_mix !traces); "per-hop trace" ]
   | _ -> ());
  (let rng = Prng.create (scale.Common.seed + 8) in
   let traces = ref [] in
   for _ = 1 to min 200 scale.Common.inter_pairs do
     let a = Prng.sample rng mix_run.Common.hosts_arr in
     let b = Prng.sample rng mix_run.Common.hosts_arr in
     let r =
       Route.route_from ~trace:(Trace.builder ()) mix_run.Common.net ~src:a ~dst:b.Net.id
     in
     traces := r.Route.trace :: !traces
   done;
   Table.add_row t
     [ "inter per-hop mix"; "-"; fmt_mix (Common.hop_mix !traces); "per-hop trace" ]);
  let failure_run =
    Common.build_inter_uncached ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
      ~strategy:Net.Multihomed scale.Common.inter_params
  in
  let stubs = Array.of_list (Internet.stubs failure_run.Common.inet) in
  let rng = Prng.create (scale.Common.seed + 6) in
  let victim = Prng.sample rng stubs in
  let f =
    Asfailure.fail_stub failure_run.Common.net victim
      ~samples:(min 300 scale.Common.inter_pairs)
  in
  Table.add_row t
    [
      "transit paths unaffected by stub failure";
      "99.998%";
      Table.fmt_float (100.0 *. (1.0 -. f.Asfailure.transit_fraction_affected)) ^ "%";
      Printf.sprintf "failed AS%d (incl. own traffic: %s%% affected)" victim
        (Table.fmt_float (100.0 *. f.Asfailure.fraction_paths_affected));
    ];
  Table.add_row t
    [
      "stub-failure repair msgs / lost ID";
      "~1";
      (if f.Asfailure.ids_lost = 0 then "-"
       else
         Table.fmt_float
           (float_of_int f.Asfailure.repair_msgs /. float_of_int f.Asfailure.ids_lost));
      Printf.sprintf "%d IDs lost" f.Asfailure.ids_lost;
    ];
  [ t ]
