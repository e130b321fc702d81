module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Resolver = Rofl_services.Resolver
module Directory = Rofl_services.Directory
module Sc = Rofl_dynamics.Services_campaign
module Audit = Rofl_doctor.Audit

(* The services lab: two audited campaign grids over the service-discovery
   layer.  Every cell is fully independent (own engine, topology, directory,
   derived streams), so both grids fan over the domain pool and the printed
   tables — fingerprints included — are byte-identical at any --jobs and
   --shards settings. *)

let params_of (scale : Common.scale) ~capacity ~storm =
  let horizon = scale.Common.svc_horizon_ms in
  {
    Sc.default_params with
    Sc.horizon_ms = horizon;
    drain_ms = 1_000.0;
    bootstrap_hosts = scale.Common.svc_bootstrap_hosts;
    services = scale.Common.svc_services;
    rate_per_s = scale.Common.svc_rate_per_s;
    (* The flash crowd occupies the middle fifth of the horizon: 8x demand
       concentrated on the two hottest names. *)
    flash_start_ms = 0.4 *. horizon;
    flash_len_ms = 0.2 *. horizon;
    storm_at_ms = (if storm then 0.6 *. horizon else 0.0);
    dir_cfg =
      {
        Directory.alpha = Common.alpha ();
        cache = { Resolver.default_config with Resolver.capacity = capacity };
      };
  }

let metric_columns =
  [
    "resolves";
    "hit [%]";
    "neg";
    "ok [%]";
    "stale [%]";
    "p50 [ms]";
    "p95 [ms]";
    "p99 [ms]";
    "miss p95";
    "repub";
    "ctrl [msg/s]";
    "expired";
    "servedExp";
    "cp/viol";
    "fingerprint";
  ]

let metric_cells (r : Sc.report) =
  let f1 = Printf.sprintf "%.1f" in
  let pct x = Printf.sprintf "%.2f" (100.0 *. x) in
  let cp, viol =
    match r.Sc.audit with
    | None -> ("-", "-")
    | Some s -> (string_of_int s.Audit.checkpoints, string_of_int s.Audit.total_violations)
  in
  [
    string_of_int r.Sc.resolves;
    pct r.Sc.hit_ratio;
    string_of_int r.Sc.neg_hits;
    pct r.Sc.ok_rate;
    pct r.Sc.stale_rate;
    f1 r.Sc.lat_p50_ms;
    f1 r.Sc.lat_p95_ms;
    f1 r.Sc.lat_p99_ms;
    f1 r.Sc.miss_p95_ms;
    string_of_int r.Sc.republishes;
    Printf.sprintf "%.0f" r.Sc.ctrl_per_s;
    string_of_int r.Sc.expired;
    string_of_int r.Sc.served_expired;
    cp ^ "/" ^ viol;
    Printf.sprintf "%016Lx" (Int64.of_int r.Sc.event_fingerprint);
  ]

let run_cell (scale : Common.scale) ~profile p =
  Sc.run ~seed:scale.Common.seed
    ~audit:(Audit.config_for p.Sc.proto_cfg)
    ~shards:(Common.shards ()) ~pool:(Common.pool ())
    (Rofl_dynamics.Campaign.network ~seed:scale.Common.seed profile) p

let services (scale : Common.scale) =
  let profile = List.hd scale.Common.isps in
  let cache_cells =
    List.map (fun cap -> `Cache cap) scale.Common.svc_cache_grid
  in
  (* The storm pair runs at the default cache capacity. *)
  let storm_cells = [ `Storm false; `Storm true ] in
  let reports =
    Common.parallel_map
      (fun cell ->
        match cell with
        | `Cache capacity -> run_cell scale ~profile (params_of scale ~capacity ~storm:false)
        | `Storm storm ->
          run_cell scale ~profile
            (params_of scale ~capacity:Resolver.default_config.Resolver.capacity ~storm))
      (cache_cells @ storm_cells)
  in
  let n_cache = List.length cache_cells in
  let cache_reports = List.filteri (fun i _ -> i < n_cache) reports in
  let storm_reports = List.filteri (fun i _ -> i >= n_cache) reports in
  let p0 = params_of scale ~capacity:0 ~storm:false in
  let t1 =
    Table.create
      ~title:
        (Printf.sprintf
           "Services lab: flash crowd vs resolver cache capacity (%s, %d services, \
            %.0f resolves/s x%.0f flash on top-%d, %.0f s horizon, doctor audits on)"
           profile.Isp.profile_name p0.Sc.services p0.Sc.rate_per_s
           Rofl_workload.Services.flash_mult Rofl_workload.Services.flash_focus
           (p0.Sc.horizon_ms /. 1000.0))
      ~columns:("cache cap" :: metric_columns)
  in
  List.iter2
    (fun cell r ->
      match cell with
      | `Cache cap -> Table.add_row t1 (string_of_int cap :: metric_cells r)
      | `Storm _ -> ())
    cache_cells cache_reports;
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf
           "Services lab: republish storm at %.1f s vs phase-staggered steady state \
            (%s, cache %d)"
           (0.6 *. p0.Sc.horizon_ms /. 1000.0)
           profile.Isp.profile_name Resolver.default_config.Resolver.capacity)
      ~columns:("mode" :: "publish msgs" :: metric_columns)
  in
  List.iter2
    (fun cell r ->
      match cell with
      | `Storm storm ->
        Table.add_row t2
          ((if storm then "storm" else "steady")
           :: string_of_int r.Sc.publish_msgs :: metric_cells r)
      | `Cache _ -> ())
    storm_cells storm_reports;
  [ t1; t2 ]
