module Table = Rofl_util.Table
module Stats = Rofl_util.Stats
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Network = Rofl_intra.Network
module Failure = Rofl_intra.Failure
module Invariant = Rofl_intra.Invariant
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Metrics = Rofl_netsim.Metrics

let first_profile (scale : Common.scale) =
  match scale.Common.isps with p :: _ -> p | [] -> Isp.as3967

let ablate_cache (scale : Common.scale) =
  let profile = first_profile scale in
  let t =
    Table.create
      ~title:"Ablation: control-path cache filling (stretch on the same workload)"
      ~columns:[ "cache filling"; "cache entries/router"; "mean stretch" ]
  in
  List.iter
    (fun (label, fill) ->
      let cfg =
        {
          Network.default_config with
          Network.cache_capacity = 4096;
          Network.cache_control_paths = fill;
        }
      in
      let run : Common.intra_run =
        Common.build_intra ~cfg ~seed:scale.Common.seed
          ~hosts:(max 100 (scale.Common.intra_hosts / 2))
          profile
      in
      let rng = Prng.create (scale.Common.seed + 21) in
      let samples =
        Common.mean_stretch_intra run ~pairs:scale.Common.intra_pairs ~rng
      in
      Table.add_row t
        [ label; "4096"; (if samples = [] then "-" else Table.fmt_float (Stats.mean samples)) ])
    [ ("on (paper)", true); ("off", false) ];
  [ t ]

let ablate_zero_id (scale : Common.scale) =
  let profile = first_profile scale in
  let rng = Prng.create (scale.Common.seed + 22) in
  let isp = Isp.generate rng profile in
  let net = Network.create ~rng isp.Isp.graph in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  let joined = ref 0 in
  let target = max 100 (scale.Common.intra_hosts / 4) in
  while !joined < target do
    match
      Network.join_fresh_host net ~gateway:(Prng.sample rng gateways)
        ~cls:Rofl_core.Vnode.Stable
    with
    | Ok _ -> incr joined
    | Error _ -> ()
  done;
  let pop = isp.Isp.pops.(Prng.int rng (Array.length isp.Isp.pops)) in
  let routers = Isp.routers_of_pop isp pop.Isp.pop_id in
  ignore (Failure.disconnect_routers net routers);
  (* Restore connectivity WITHOUT the zero-ID merge protocol: links come
     back but nobody re-splices. *)
  let inside = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace inside r ()) routers;
  List.iter
    (fun r ->
      List.iter
        (fun (v, _) ->
          if
            (not (Hashtbl.mem inside v))
            && not (Linkstate.link_alive net.Network.ls r v)
          then Linkstate.restore_link net.Network.ls r v)
        (Graph.neighbors net.Network.graph r))
    routers;
  let before = Invariant.check net in
  (* Now run the zero-ID-driven stabilisation and re-check. *)
  let repair_msgs = Network.stabilize net ~category:Metrics.Repair in
  let after = Invariant.check net in
  let t =
    Table.create ~title:"Ablation: zero-ID partition repair (ring state after merge)"
      ~columns:[ "zero-ID repair"; "ring violations"; "repair msgs" ]
  in
  Table.add_row t
    [ "off"; string_of_int (List.length before.Invariant.violations); "0" ];
  Table.add_row t
    [
      "on (paper)";
      string_of_int (List.length after.Invariant.violations);
      string_of_int repair_msgs;
    ];
  [ t ]

let ablate_peering (scale : Common.scale) =
  let t =
    Table.create
      ~title:"Ablation: peering via virtual ASes vs bloom filters"
      ~columns:
        [ "mode"; "join msgs (mean)"; "mean stretch"; "backtracks/packet"; "bloom Kbit/AS" ]
  in
  List.iter
    (fun (label, mode) ->
      let cfg = { Net.default_config with Net.peering_mode = mode } in
      let run =
        Common.build_inter ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
          ~strategy:Net.Peering scale.Common.inter_params
      in
      let rng = Prng.create (scale.Common.seed + 23) in
      let stretches = ref [] and backtracks = ref 0 and routed = ref 0 in
      for _ = 1 to scale.Common.inter_pairs do
        let a = Prng.sample rng run.Common.hosts_arr in
        let b = Prng.sample rng run.Common.hosts_arr in
        if a.Net.home_as <> b.Net.home_as then begin
          let r = Route.route_from run.Common.net ~src:a ~dst:b.Net.id in
          if r.Route.delivered then begin
            incr routed;
            backtracks := !backtracks + r.Route.backtracks;
            match Route.stretch_vs_bgp run.Common.net ~src:a ~dst:b.Net.id with
            | Some s -> stretches := s :: !stretches
            | None -> ()
          end
        end
      done;
      let n_as = Rofl_asgraph.Asgraph.n run.Common.inet.Rofl_asgraph.Internet.graph in
      let bloom_bits = ref 0.0 in
      for a = 0 to n_as - 1 do
        bloom_bits := !bloom_bits +. Net.bloom_state_bits run.Common.net a
      done;
      Table.add_row t
        [
          label;
          Table.fmt_float (Stats.mean (List.map float_of_int run.Common.lookup_msgs));
          (if !stretches = [] then "-" else Table.fmt_float (Stats.mean !stretches));
          Table.fmt_float (float_of_int !backtracks /. float_of_int (max 1 !routed));
          Table.fmt_float (!bloom_bits /. float_of_int n_as /. 1000.0);
        ])
    [ ("virtual-AS (joins)", Net.Virtual_as); ("bloom filters", Net.Bloom_filters) ];
  [ t ]

let ablate_fingers (scale : Common.scale) =
  let t =
    Table.create
      ~title:"Ablation: finger placement (bottom-up across levels vs root-only)"
      ~columns:[ "placement"; "mean stretch"; "isolation violations" ]
  in
  List.iter
    (fun (label, root_only) ->
      let cfg =
        {
          Net.default_config with
          Net.finger_budget = 60;
          Net.fingers_root_only = root_only;
        }
      in
      let run =
        Common.build_inter ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
          ~strategy:Net.Multihomed scale.Common.inter_params
      in
      let rng = Prng.create (scale.Common.seed + 24) in
      let stretches = ref [] and violations = ref 0 in
      for _ = 1 to scale.Common.inter_pairs do
        let a = Prng.sample rng run.Common.hosts_arr in
        let b = Prng.sample rng run.Common.hosts_arr in
        if a.Net.home_as <> b.Net.home_as then begin
          let r = Route.route_from run.Common.net ~src:a ~dst:b.Net.id in
          if r.Route.delivered then begin
            if not (Route.isolation_respected run.Common.net r ~src:a ~dst:b.Net.id) then
              incr violations;
            match Route.stretch_vs_bgp run.Common.net ~src:a ~dst:b.Net.id with
            | Some s -> stretches := s :: !stretches
            | None -> ()
          end
        end
      done;
      Table.add_row t
        [
          label;
          (if !stretches = [] then "-" else Table.fmt_float (Stats.mean !stretches));
          string_of_int !violations;
        ])
    [ ("bottom-up (paper)", false); ("root-only", true) ];
  [ t ]

let ablate_multihomed (scale : Common.scale) =
  let t =
    Table.create
      ~title:
        "Ablation: redundant-lookup elimination in multihomed joins (the §6.3 optimisation)"
      ~columns:[ "dedup"; "join msgs (mean)"; "join msgs (p95)" ]
  in
  List.iter
    (fun (label, dedup) ->
      let cfg = { Net.default_config with Net.dedup_lookups = dedup } in
      let run =
        Common.build_inter ~cfg ~seed:scale.Common.seed ~hosts:scale.Common.inter_hosts
          ~strategy:Net.Multihomed scale.Common.inter_params
      in
      let samples = List.map float_of_int run.Common.lookup_msgs in
      Table.add_row t
        [
          label;
          Table.fmt_float (Stats.mean samples);
          Table.fmt_float (Stats.percentile samples 95.0);
        ])
    [ ("on (paper)", true); ("off", false) ];
  [ t ]

let all scale =
  ablate_cache scale @ ablate_zero_id scale @ ablate_peering scale
  @ ablate_fingers scale @ ablate_multihomed scale
