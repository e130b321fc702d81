module Prng = Rofl_util.Prng
module Pool = Rofl_util.Pool
module Stats = Rofl_util.Stats
module Id = Rofl_idspace.Id
module Isp = Rofl_topology.Isp
module Internet = Rofl_asgraph.Internet
module Network = Rofl_intra.Network
module Forward = Rofl_intra.Forward
module Vnode = Rofl_core.Vnode
module Net = Rofl_inter.Net
module Trace = Rofl_routing.Trace
module Hostdist = Rofl_workload.Hostdist

type scale = {
  seed : int;
  intra_hosts : int;
  intra_pairs : int;
  isps : Isp.profile list;
  inter_hosts : int;
  inter_pairs : int;
  inter_params : Internet.params;
  pop_ids_grid : int list;
  cache_grid : int list;
  inter_cache_grid : int list;
  finger_grid : int list;
  churn_horizon_ms : float;
  churn_arrival_per_s : float;
  churn_lookup_per_s : float;
  churn_lifetimes_s : float list;
  churn_periods_ms : float list;
  churn_bootstrap_hosts : int; (* megachurn population spliced in at time 0 *)
  svc_horizon_ms : float;      (* services-lab campaign horizon *)
  svc_services : int;          (* published service names *)
  svc_rate_per_s : float;      (* baseline resolution demand *)
  svc_bootstrap_hosts : int;   (* ring population under the directory *)
  svc_cache_grid : int list;   (* resolver cache capacities swept under flash *)
  attack_horizon_ms : float;   (* attack-lab campaign horizon *)
  attack_sybils : int list;    (* eclipse axis: mined sybils per campaign *)
  attack_poison_fracs : float list; (* poison axis: fabricating router share *)
  attack_forges : int list;    (* forge axis: forged-credential joins *)
}

let full =
  {
    seed = 20060911; (* SIGCOMM'06 started September 11, 2006 *)
    intra_hosts = 10_000;
    intra_pairs = 2_000;
    isps = Isp.all_profiles;
    inter_hosts = 20_000;
    inter_pairs = 1_500;
    inter_params = Internet.default_params;
    pop_ids_grid = [ 1; 10; 100; 1000 ];
    cache_grid = [ 0; 16; 64; 256; 1024; 4096; 16384; 65536 ];
    inter_cache_grid = [ 0; 8; 32; 128; 512; 2048 ];
    finger_grid = [ 60; 160; 280 ];
    churn_horizon_ms = 30_000.0;
    churn_arrival_per_s = 4.0;
    churn_lookup_per_s = 20.0;
    churn_lifetimes_s = [ 60.0; 20.0; 5.0; 2.0 ];
    churn_periods_ms = [ 25.0; 50.0; 100.0; 200.0; 400.0; 800.0 ];
    churn_bootstrap_hosts = 1_000_000;
    svc_horizon_ms = 20_000.0;
    svc_services = 400;
    svc_rate_per_s = 400.0;
    svc_bootstrap_hosts = 2_000;
    svc_cache_grid = [ 0; 4; 16; 64; 256; 1024 ];
    attack_horizon_ms = 20_000.0;
    attack_sybils = [ 4; 8 ];
    attack_poison_fracs = [ 0.1; 0.3 ];
    attack_forges = [ 32 ];
  }

let quick =
  {
    seed = 20060911;
    intra_hosts = 800;
    intra_pairs = 300;
    isps = [ Isp.as3967; Isp.as3257 ];
    inter_hosts = 2_500;
    inter_pairs = 300;
    inter_params = Internet.small_params;
    pop_ids_grid = [ 1; 10; 50 ];
    cache_grid = [ 0; 32; 256; 2048 ];
    inter_cache_grid = [ 0; 32; 256 ];
    finger_grid = [ 60; 160 ];
    churn_horizon_ms = 8_000.0;
    churn_arrival_per_s = 2.0;
    churn_lookup_per_s = 10.0;
    churn_lifetimes_s = [ 30.0; 5.0; 1.5 ];
    churn_periods_ms = [ 50.0; 200.0; 800.0 ];
    churn_bootstrap_hosts = 20_000;
    svc_horizon_ms = 6_000.0;
    svc_services = 60;
    svc_rate_per_s = 120.0;
    svc_bootstrap_hosts = 300;
    svc_cache_grid = [ 0; 16; 256 ];
    attack_horizon_ms = 6_000.0;
    attack_sybils = [ 5 ];
    attack_poison_fracs = [ 0.5 ];
    attack_forges = [ 8 ];
  }

(* -- parallel engine ----------------------------------------------------

   Figure modules fan their independent (ISP × grid-point) work items over a
   shared domain pool.  Every item derives its own [Prng] from a fixed seed
   (never sharing a generator across items) and [parallel_map] preserves
   input order, so tables are byte-identical to a sequential run at any
   [--jobs] setting. *)

let jobs_setting = ref (Domain.recommended_domain_count ())

let pool_ref : Pool.t option ref = ref None

let pool_mutex = Mutex.create ()

let jobs () = !jobs_setting

let set_jobs n =
  let n = max 1 n in
  Mutex.lock pool_mutex;
  if n <> !jobs_setting then begin
    (match !pool_ref with Some p -> Pool.shutdown p | None -> ());
    pool_ref := None;
    jobs_setting := n
  end;
  Mutex.unlock pool_mutex

let pool () =
  Mutex.lock pool_mutex;
  let p =
    match !pool_ref with
    | Some p -> p
    | None ->
      let p = Pool.create ~jobs:!jobs_setting in
      pool_ref := Some p;
      p
  in
  Mutex.unlock pool_mutex;
  p

let parallel_map f xs = Pool.map (pool ()) f xs

(* Shard count for campaign engines (--shards).  Execution configuration
   only: the shard coordinator guarantees byte-identical results at any
   value, so this never needs to be part of an experiment's identity. *)
let shards_setting = ref 1

let shards () = !shards_setting

let set_shards n = shards_setting := max 1 n

(* Lookup parallelism (--alpha).  Unlike jobs/shards this IS experiment
   identity — α changes which walks run and what they cost — so campaign
   runners thread it into their protocol/directory configs explicitly. *)
let alpha_setting = ref 1

let alpha () = !alpha_setting

let set_alpha n =
  if n < 1 then invalid_arg "Common.set_alpha: alpha must be >= 1";
  alpha_setting := n

(* Memo tables are shared across figure modules and now across domains: a
   missing entry is built outside the lock (concurrent requests for *other*
   keys proceed), with a [Building] marker so a second request for the same
   key waits for the first build instead of duplicating it. *)
type 'v memo_slot = Ready of 'v | Building

type ('k, 'v) memo = {
  tbl : ('k, 'v memo_slot) Hashtbl.t;
  m : Mutex.t;
  ready : Condition.t;
}

let make_memo n = { tbl = Hashtbl.create n; m = Mutex.create (); ready = Condition.create () }

let memo_get memo key build =
  Mutex.lock memo.m;
  let rec get () =
    match Hashtbl.find_opt memo.tbl key with
    | Some (Ready v) ->
      Mutex.unlock memo.m;
      v
    | Some Building ->
      Condition.wait memo.ready memo.m;
      get ()
    | None ->
      Hashtbl.replace memo.tbl key Building;
      Mutex.unlock memo.m;
      let v =
        try build ()
        with e ->
          Mutex.lock memo.m;
          Hashtbl.remove memo.tbl key;
          Condition.broadcast memo.ready;
          Mutex.unlock memo.m;
          raise e
      in
      Mutex.lock memo.m;
      Hashtbl.replace memo.tbl key (Ready v);
      Condition.broadcast memo.ready;
      Mutex.unlock memo.m;
      v
  in
  get ()

let log_checkpoints n =
  let rec go acc base =
    let candidates = [ base; 2 * base; 5 * base ] in
    let acc = List.fold_left (fun acc c -> if c < n then c :: acc else acc) acc candidates in
    if base * 10 < n then go acc (base * 10) else acc
  in
  List.sort_uniq compare (n :: go [] 1)

type intra_run = {
  isp : Isp.t;
  net : Network.t;
  ids : Id.t array;
  join_msgs : int list;
  join_latency : float list;
  checkpoints : (int * int * float) list;
  gateway_rng : Prng.t;
}

let gateway_sampler run = Hostdist.gateway_sampler (Prng.copy run.gateway_rng) run.isp

let build_intra ?cfg ~seed ~hosts profile =
  let isp, rng = Rofl_dynamics.Campaign.topology ~seed profile in
  let net = Network.create ?cfg ~rng isp.Isp.graph in
  let gateway_rng = Prng.split rng in
  let gateway = Hostdist.gateway_sampler gateway_rng isp in
  (* Checkpoint membership is asked after every one of [hosts] joins; the
     list scan was O(|marks|) per join, so probe a set instead. *)
  let marks = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace marks m ()) (log_checkpoints hosts);
  let ids = ref [] in
  let join_msgs = ref [] and join_latency = ref [] in
  let checkpoints = ref [] in
  let cumulative = ref 0 in
  let joined = ref 0 in
  while !joined < hosts do
    match Network.join_fresh_host net ~gateway:(gateway ()) ~cls:Vnode.Stable with
    | Ok (id, o) ->
      incr joined;
      ids := id :: !ids;
      cumulative := !cumulative + o.Network.join_msgs;
      join_msgs := o.Network.join_msgs :: !join_msgs;
      join_latency := o.Network.join_latency_ms :: !join_latency;
      if Hashtbl.mem marks !joined then
        checkpoints :=
          (!joined, !cumulative, Network.avg_router_state_entries net) :: !checkpoints
    | Error _ -> ()
  done;
  {
    isp;
    net;
    ids = Array.of_list (List.rev !ids);
    join_msgs = List.rev !join_msgs;
    join_latency = List.rev !join_latency;
    checkpoints = List.rev !checkpoints;
    gateway_rng;
  }

let intra_cache : (int * int * string, intra_run) memo = make_memo 8

let default_intra_run scale profile =
  let key = (scale.seed, scale.intra_hosts, profile.Isp.profile_name) in
  memo_get intra_cache key (fun () ->
      build_intra ~seed:scale.seed ~hosts:scale.intra_hosts profile)

type inter_run = {
  inet : Internet.t;
  net : Net.t;
  hosts_arr : Net.host array;
  lookup_msgs : int list;
}

(* The AS graph is deterministic in (seed, params); cache it so figure
   modules comparing configurations run over the same Internet.  Concurrent
   tasks requesting the same graph block on the one build in flight. *)
let inet_cache : (int * Internet.params, Internet.t) memo = make_memo 4

let internet ~seed params =
  memo_get inet_cache (seed, params) (fun () ->
      Internet.generate (Prng.create seed) params)

let build_inter_uncached ?cfg ~seed ~hosts ~strategy params =
  let inet = internet ~seed params in
  let rng = Prng.create (seed + 1) in
  let net = Net.create ?cfg ~rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let lookup_msgs = ref [] in
  let hosts_acc = ref [] in
  for _ = 1 to hosts do
    let s = stubs.(Prng.zipf rng ~n:(Array.length stubs) ~s:0.9 - 1) in
    let o = Net.join net ~as_idx:s ~strategy in
    lookup_msgs := o.Net.lookup_msgs :: !lookup_msgs;
    hosts_acc := o.Net.host :: !hosts_acc
  done;
  {
    inet;
    net;
    hosts_arr = Array.of_list (List.rev !hosts_acc);
    lookup_msgs = List.rev !lookup_msgs;
  }

let inter_memo : (string, inter_run) memo = make_memo 8

(* Structural memo keys: [Hashtbl.hash] over the config records can collide
   (it is not injective), silently handing a figure module a run built with
   someone else's configuration.  Spell every field out instead. *)
let inter_cfg_key = function
  | None -> "default"
  | Some (c : Net.config) ->
    Printf.sprintf "%d/%d/%s/%h/%b/%b" c.Net.finger_budget c.Net.cache_capacity
      (match c.Net.peering_mode with
       | Net.No_peering -> "none"
       | Net.Virtual_as -> "vas"
       | Net.Bloom_filters -> "bloom")
      c.Net.bloom_fpr c.Net.dedup_lookups c.Net.fingers_root_only

let inter_params_key (p : Internet.params) =
  Printf.sprintf "%d/%d/%d/%d/%h/%h/%h" p.Internet.n_tier1 p.Internet.n_tier2
    p.Internet.n_tier3 p.Internet.n_stub p.Internet.multihome_fraction
    p.Internet.peer_fraction p.Internet.backup_fraction

let build_inter ?cfg ~seed ~hosts ~strategy params =
  let key =
    Printf.sprintf "%d/%d/%s/%s/%s" seed hosts
      (Net.strategy_to_string strategy)
      (inter_cfg_key cfg) (inter_params_key params)
  in
  memo_get inter_memo key (fun () ->
      build_inter_uncached ?cfg ~seed ~hosts ~strategy params)

(* Aggregate per-hop event totals over many walks — the per-hop breakdown
   rows of the summary figure. *)
let hop_mix traces =
  List.fold_left
    (fun acc tr -> List.map2 (fun (k, a) (_, n) -> (k, a + n)) acc (Trace.counts tr))
    (Trace.counts []) traces

let mean_stretch_intra run ~pairs ~rng =
  let gateway = gateway_sampler run in
  let samples = ref [] in
  if Array.length run.ids > 0 then
    for _ = 1 to pairs do
      let dst = Prng.sample rng run.ids in
      let src = gateway () in
      match Forward.stretch run.net ~src_gateway:src ~dst with
      | Some s -> samples := s :: !samples
      | None -> ()
    done;
  !samples
