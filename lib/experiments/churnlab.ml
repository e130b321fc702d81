module Table = Rofl_util.Table
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Campaign = Rofl_dynamics.Campaign
module Audit = Rofl_doctor.Audit

(* One campaign per grid cell; every cell is fully independent (own engine,
   own topology, own derived streams), so the whole grid fans over the
   domain pool with byte-identical tables at any --jobs setting. *)

(* One cell of the churn grid; the doctor audits the same cells at α=1.
   The --alpha knob rides into the protocol config here: α=1 leaves the
   config exactly at the defaults (pointer cache off), so existing tables
   and goldens are unchanged unless the knob is turned. *)
let params_of (scale : Common.scale) ~alpha ~lifetime_s ~period_ms =
  {
    Campaign.default_params with
    Campaign.horizon_ms = scale.Common.churn_horizon_ms;
    arrival_rate_per_s = scale.Common.churn_arrival_per_s;
    mean_lifetime_s = lifetime_s;
    move_fraction = 0.2;
    crash_fraction = 0.2;
    lookup_rate_per_s = scale.Common.churn_lookup_per_s;
    proto_cfg =
      {
        Proto.default_config with
        Proto.stabilize_period_ms = period_ms;
        lookup_alpha = alpha;
        pcache_capacity = (if alpha > 1 then 8 else 0);
      };
  }

(* A campaign on the scale's seed, at the --shards/--jobs settings. *)
let run (scale : Common.scale) ?audit profile p =
  let seed = scale.Common.seed in
  Campaign.run ~seed ?audit ~shards:(Common.shards ()) ~pool:(Common.pool ())
    (Campaign.network ~seed profile) p

let metric_columns =
  [
    "J/L/M/C";
    "jfail";
    "lookups";
    "ok [%]";
    "p50 [ms]";
    "p95 [ms]";
    "p99 [ms]";
    "stale p95 [ms]";
    "reconv [ms]";
    "converged?";
    "failovers";
    "timeouts";
    "ctrl [msg/s]";
    "peakQ";
    "events";
    "fingerprint";
  ]

let metric_cells (r : Campaign.report) =
  let f1 = Printf.sprintf "%.1f" in
  [
    Printf.sprintf "%d/%d/%d/%d" r.Campaign.joins r.Campaign.leaves r.Campaign.moves
      r.Campaign.crashes;
    string_of_int r.Campaign.join_failures;
    string_of_int r.Campaign.lookups;
    Printf.sprintf "%.2f" (100.0 *. r.Campaign.success_rate);
    f1 r.Campaign.lat_p50_ms;
    f1 r.Campaign.lat_p95_ms;
    f1 r.Campaign.lat_p99_ms;
    f1 r.Campaign.stale_p95_ms;
    (if Float.is_nan r.Campaign.reconverge_ms then "-" else f1 r.Campaign.reconverge_ms);
    (if r.Campaign.reconverged then "yes" else "NO");
    string_of_int r.Campaign.failovers;
    string_of_int r.Campaign.rpc_timeouts;
    (* Maintenance traffic scales with population and time, not with churn
       events, so the rate is the comparable overhead number. *)
    Printf.sprintf "%.0f"
      (float_of_int r.Campaign.total_msgs /. (r.Campaign.sim_end_ms /. 1000.0));
    string_of_int r.Campaign.peak_queue;
    string_of_int r.Campaign.events_executed;
    (* The event-key digest: any shard count must reproduce this exact
       value, so a --shards discrepancy is visible right in the table. *)
    Printf.sprintf "%016Lx" (Int64.of_int r.Campaign.event_fingerprint);
  ]

let churn (scale : Common.scale) =
  let default_period = Proto.default_config.Proto.stabilize_period_ms in
  let sweep_profile = List.hd scale.Common.isps in
  let sweep_lifetime =
    List.fold_left Float.min Float.infinity scale.Common.churn_lifetimes_s
  in
  let grid =
    List.concat_map
      (fun profile ->
        List.map (fun lt -> `Grid (profile, lt)) scale.Common.churn_lifetimes_s)
      scale.Common.isps
  in
  let sweep = List.map (fun period -> `Sweep period) scale.Common.churn_periods_ms in
  let cell profile ~lifetime_s ~period_ms =
    run scale profile (params_of scale ~alpha:(Common.alpha ()) ~lifetime_s ~period_ms)
  in
  let reports =
    Common.parallel_map
      (function
        | `Grid (profile, lifetime_s) -> cell profile ~lifetime_s ~period_ms:default_period
        | `Sweep period_ms -> cell sweep_profile ~lifetime_s:sweep_lifetime ~period_ms)
      (grid @ sweep)
  in
  let n_grid = List.length grid in
  let grid_reports = List.filteri (fun i _ -> i < n_grid) reports in
  let sweep_reports = List.filteri (fun i _ -> i >= n_grid) reports in
  let t1 =
    Table.create
      ~title:
        (Printf.sprintf
           "Churn lab: steady-state SLOs vs churn rate (%.0f s horizon, %.0f \
            arrivals/s, %.0f lookups/s, stabilise every %.0f ms)"
           (scale.Common.churn_horizon_ms /. 1000.0)
           scale.Common.churn_arrival_per_s scale.Common.churn_lookup_per_s
           default_period)
      ~columns:("ISP" :: "lifetime [s]" :: metric_columns)
  in
  List.iter2
    (fun cell r ->
      match cell with
      | `Grid (profile, lt) ->
        Table.add_row t1
          (profile.Isp.profile_name :: Printf.sprintf "%g" lt :: metric_cells r)
      | `Sweep _ -> ())
    grid grid_reports;
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf
           "Churn lab: stabilisation-period sweep at the highest churn rate (%s, \
            %g s mean lifetime)"
           sweep_profile.Isp.profile_name sweep_lifetime)
      ~columns:("period [ms]" :: metric_columns)
  in
  List.iter2
    (fun period r -> Table.add_row t2 (Printf.sprintf "%g" period :: metric_cells r))
    scale.Common.churn_periods_ms sweep_reports;
  [ t1; t2 ]

(* ---- α-parallel lookup frontier ---------------------------------------- *)

(* The latency / control-traffic frontier of redundant lookups: α parallel
   walk branches per lookup, crossed with static vs self-tuned
   stabilisation, at the highest churn rate of the scale.  Every cell runs
   the same pointer-cache configuration (entries feed the diversified
   branch starts at α > 1 and the refresh manager re-validates them), so
   the only axes are α and the tuning mode.  Cells are independent
   campaigns and fan over the pool; tables are byte-identical at any
   --jobs/--shards. *)

let frontier_columns =
  metric_columns @ [ "wasted"; "cancels"; "N-hat"; "mult"; "sl" ]

let frontier_cells (r : Campaign.report) =
  metric_cells r
  @ [
      string_of_int r.Campaign.wasted_hops;
      string_of_int r.Campaign.cancellations;
    ]
  @ (match r.Campaign.auto_state with
     | None -> [ "-"; "-"; "-" ]
     | Some (nhat, mult, sl) ->
       [ Printf.sprintf "%.0f" nhat; Printf.sprintf "%.2f" mult;
         string_of_int sl ])

let alpha_frontier (scale : Common.scale) =
  let default_period = Proto.default_config.Proto.stabilize_period_ms in
  let lifetime_s =
    List.fold_left Float.min Float.infinity scale.Common.churn_lifetimes_s
  in
  let alphas = [ 1; 2; 3; 4 ] in
  let cells =
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun auto -> List.map (fun alpha -> (profile, alpha, auto)) alphas)
          [ false; true ])
      scale.Common.isps
  in
  let reports =
    Common.parallel_map
      (fun (profile, alpha, auto) ->
        let base = params_of scale ~alpha ~lifetime_s ~period_ms:default_period in
        let p =
          {
            base with
            Campaign.proto_cfg =
              {
                base.Campaign.proto_cfg with
                Proto.stabilize_auto = auto;
                (* one cache config for every cell, so α and tuning are the
                   only axes — α=1 rows carry the same refresh traffic *)
                pcache_capacity = 8;
              };
          }
        in
        run scale profile p)
      cells
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Alpha frontier: lookup latency vs control traffic, alpha x \
            stabilisation tuning (%g s mean lifetime, stabilise every %.0f ms \
            static, pointer cache 8/router)"
           lifetime_s default_period)
      ~columns:("ISP" :: "alpha" :: "stab" :: frontier_columns)
  in
  List.iter2
    (fun (profile, alpha, auto) r ->
      Table.add_row t
        (profile.Isp.profile_name :: string_of_int alpha
         :: (if auto then "auto" else "static")
         :: frontier_cells r))
    cells reports;
  [ t ]

(* ---- mega-churn: the compact-state acceptance run ---------------------- *)

(* One audited campaign over a bootstrap population spliced into the ring
   at time zero (a million hosts at full scale) with open-loop lookups and
   live churn on top.  Short horizon and a long stabilisation period keep
   the per-round probe burst (one probe per resident) affordable; the
   struct-of-arrays store keeps the population itself in tens of bytes per
   host.  The table carries the event fingerprint, so running it twice at
   different --shards settings must print byte-identical output. *)
let megachurn_params (scale : Common.scale) =
  {
    Campaign.horizon_ms = 1_500.0;
    arrival_rate_per_s = 10.0;
    mean_lifetime_s = 1.0;
    move_fraction = 0.1;
    crash_fraction = 0.2;
    lookup_rate_per_s = 50.0;
    lookup_warmup_ms = 100.0;
    drain_max_ms = 3_000.0;
    bootstrap_hosts = scale.Common.churn_bootstrap_hosts;
    proto_cfg = { Proto.default_config with Proto.stabilize_period_ms = 500.0 };
  }

let megachurn (scale : Common.scale) =
  let profile = List.hd scale.Common.isps in
  let p = megachurn_params scale in
  let r = run scale ~audit:(Audit.config_for p.Campaign.proto_cfg) profile p in
  let checkpoints, violations =
    match r.Campaign.audit with
    | None -> ("-", "-")
    | Some s ->
      (string_of_int s.Audit.checkpoints, string_of_int s.Audit.total_violations)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Mega-churn: %d bootstrap hosts on %s (%.1f s horizon, %.0f \
            lookups/s, stabilise every %.0f ms, doctor audits on)"
           p.Campaign.bootstrap_hosts profile.Isp.profile_name
           (p.Campaign.horizon_ms /. 1000.0)
           p.Campaign.lookup_rate_per_s
           p.Campaign.proto_cfg.Proto.stabilize_period_ms)
      ~columns:("hosts" :: "checkpoints" :: "violations" :: metric_columns)
  in
  Table.add_row t
    (string_of_int p.Campaign.bootstrap_hosts
     :: checkpoints :: violations :: metric_cells r);
  [ t ]
