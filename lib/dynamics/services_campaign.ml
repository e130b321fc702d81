module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Graph = Rofl_topology.Graph
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
module Proto = Rofl_proto.Proto
module Services = Rofl_workload.Services
module Directory = Rofl_services.Directory
module Provider_store = Rofl_services.Provider_store
module Audit = Rofl_doctor.Audit
module Checks = Rofl_doctor.Checks

(* The service-discovery campaign: a directory over a running actor network,
   Zipf-skewed open-loop resolution demand with a flash crowd, provider
   flaps feeding the stale-answer oracle, periodic republish (optionally
   with a storm), TTL sweeps, and SLO accounting.

   Determinism discipline (the same rules as the churn campaign):

   - every random stream derives from (seed, purpose); per-event randomness
     (gateways, unknown names) is keyed by the event's content, never its
     trace position;

   - every directory mutation and every resolution batch runs inside a
     global event — all shards parked at a K-independent sync point — so
     one unsharded directory serves any [--shards]/[--jobs] setting;

   - demand is quantised to the tick cadence: events in ((k-1)·tick, k·tick]
     execute at the k·tick boundary, resolutions batched per tick, each
     miss one owner walk ([Rofl_proto.Owner.walk_owner]).  Latency is the
     walk's priced physical latency plus the shortest-path response leg;
     cache hits answer locally at zero latency.

   The between-tick time belongs to the protocol: the stabilizer keeps
   probing throughout, so resolution traffic shares the network with live
   ring maintenance, sharded and parallel like any proto campaign. *)

(* Batching cadence of the open loop, and provider flaps per second. *)
let tick_ms = 100.0
let flap_rate_per_s = 1.0

type params = {
  horizon_ms : float;
  drain_ms : float;            (* post-horizon ticks: republish/sweep only *)
  bootstrap_hosts : int;
  services : int;
  rate_per_s : float;
  flash_start_ms : float;
  flash_len_ms : float;        (* <= 0 disables the flash crowd *)
  storm_at_ms : float;         (* <= 0 disables the republish storm *)
  dir_cfg : Directory.config;
  proto_cfg : Proto.config;
}

let default_params =
  {
    horizon_ms = 20_000.0;
    drain_ms = 2_000.0;
    bootstrap_hosts = 500;
    services = 200;
    rate_per_s = 200.0;
    flash_start_ms = 8_000.0;
    flash_len_ms = 4_000.0;
    storm_at_ms = 0.0;
    dir_cfg = Directory.default_config;
    proto_cfg = Proto.default_config;
  }

type report = {
  name : string;
  params : params;
  resolves : int;
  hits : int;                  (* positive cache hits *)
  neg_hits : int;
  misses : int;
  hit_ratio : float;           (* (hits + neg_hits) / resolves *)
  ok : int;
  ok_rate : float;             (* answers with the oracle-correct sign *)
  stale : int;
  stale_rate : float;          (* answers containing decayed data *)
  lat_p50_ms : float;          (* over all resolutions (hits are local = 0) *)
  lat_p95_ms : float;
  lat_p99_ms : float;
  miss_p95_ms : float;         (* over owner-walk resolutions only *)
  republishes : int;
  publish_msgs : int;          (* link traversals of publish walks *)
  resolve_msgs : int;          (* link traversals of miss resolutions *)
  resolve_wasted : int;        (* ring hops burned by losing α-branches *)
  resolve_cancels : int;       (* cooperative branch cancellations *)
  expired : int;               (* records dropped by TTL sweeps *)
  served_expired : int;        (* must be 0 without the fault knob *)
  records_live : int;          (* placed records at the end *)
  intents_active : int;
  ctrl_msgs : int;             (* proto messages + publish/resolve traversals *)
  ctrl_per_s : float;
  peak_queue : int;
  events_executed : int;
  event_fingerprint : int;
  sim_end_ms : float;
  audit : Audit.summary option;
}

let service_id ~seed rank = Id.random (Campaign.keyed seed "svc-id" rank)
let provider_id ~seed rank j = Id.random (Campaign.keyed seed "svc-provider" (rank, j))

let run ~seed ?audit ?shards ?pool (net : Campaign.network) (p : params) =
  let gateways = net.Campaign.gateways in
  (* No lookup hint: resolutions are owner walks, not proto lookups. *)
  let proto =
    Campaign.create_proto ~seed ?shards ?pool ~lookup_hint:0 ~cfg:p.proto_cfg
      ~bootstrap_hosts:p.bootstrap_hosts net
  in
  let coord = Proto.coordinator proto in
  (* Each provider's origin is a content-keyed gateway, where its host
     attaches to the network. *)
  let register dir rank j ~service ~provider =
    let origin_rng = Campaign.keyed seed "svc-origin" (rank, j) in
    ignore
      (Directory.register dir ~service ~provider
         ~origin:gateways.(Prng.int origin_rng (Array.length gateways)))
  in
  (* Little's-law load hint: the steady record population is the intent set,
     and the resolve batch width is rate x tick. *)
  let intents = p.services * Services.providers_per_service in
  let batch_hint =
    16 + int_of_float (ceil (p.rate_per_s *. tick_ms /. 1000.0))
  in
  let dir =
    Directory.create ~proto ~routers:(Graph.n net.Campaign.graph)
      ~hint:(max intents batch_hint) p.dir_cfg
  in
  (* The publication set: services x providers. *)
  for rank = 1 to p.services do
    let service = service_id ~seed rank in
    for j = 0 to Services.providers_per_service - 1 do
      register dir rank j ~service ~provider:(provider_id ~seed rank j)
    done
  done;
  (* Demand trace, bucketed by tick. *)
  let events =
    Services.generate (Campaign.stream seed "svc-demand") ~horizon_ms:p.horizon_ms
      ~services:p.services ~rate_per_s:p.rate_per_s ~flash_start_ms:p.flash_start_ms
      ~flash_len_ms:p.flash_len_ms ~flap_rate_per_s
  in
  let ticks_horizon = int_of_float (ceil (p.horizon_ms /. tick_ms)) in
  let ticks_total =
    ticks_horizon + int_of_float (ceil (p.drain_ms /. tick_ms))
  in
  let bucket_of at =
    (* events in ((k-1)·tick, k·tick] run at boundary k; k is 1-based *)
    min ticks_horizon (max 1 (int_of_float (ceil (at /. tick_ms))))
  in
  let resolves_b = Array.make (ticks_total + 1) [] in
  let flaps_b = Array.make (ticks_total + 1) [] in
  List.iter
    (fun ev ->
      match ev with
      | Services.Resolve { at_ms; rank; seq } ->
        let b = bucket_of at_ms in
        resolves_b.(b) <- (rank, seq) :: resolves_b.(b)
      | Services.Flap { at_ms; service; provider; seq = _ } ->
        let b = bucket_of at_ms in
        flaps_b.(b) <- (service, provider) :: flaps_b.(b))
    events;
  (* restore trace order within each bucket *)
  Array.iteri (fun i l -> resolves_b.(i) <- List.rev l) resolves_b;
  Array.iteri (fun i l -> flaps_b.(i) <- List.rev l) flaps_b;
  (* SLO accumulators — only touched inside global events. *)
  let resolves = ref 0
  and hits = ref 0
  and neg_hits = ref 0
  and misses = ref 0
  and ok = ref 0
  and stale = ref 0 in
  let lats = ref [] and miss_lats = ref [] in
  (* reusable batch input registers *)
  let bcap = ref 16 in
  let bfrom = ref (Array.make !bcap 0) in
  let bsvc = ref (Array.make !bcap Id.zero) in
  let storm_done = ref (p.storm_at_ms <= 0.0) in
  for k = 1 to ticks_total do
    let time_ms = float_of_int k *. tick_ms in
    Shard.at_global coord ~time_ms (fun () ->
        let now = Shard.now coord in
        (* provider flaps first: the tick's resolutions see the new truth *)
        List.iter
          (fun (rank, j) ->
            let service = service_id ~seed rank in
            let provider = provider_id ~seed rank j in
            if Directory.provider_active dir ~service ~provider then
              ignore (Directory.unregister dir ~service ~provider)
            else register dir rank j ~service ~provider)
          flaps_b.(k);
        if (not !storm_done) && time_ms >= p.storm_at_ms then begin
          storm_done := true;
          ignore (Directory.republish_all dir ~now)
        end
        else ignore (Directory.republish_due dir ~now);
        ignore (Directory.sweep dir ~now);
        (match resolves_b.(k) with
         | [] -> ()
         | batch ->
           let n = List.length batch in
           if n > !bcap then begin
             bcap := max n (2 * !bcap);
             bfrom := Array.make !bcap 0;
             bsvc := Array.make !bcap Id.zero
           end;
           let from = !bfrom and svcs = !bsvc in
           List.iteri
             (fun i (rank, seq) ->
               from.(i) <- gateways.(Prng.int (Campaign.keyed seed "svc-gw" seq)
                                        (Array.length gateways));
               svcs.(i) <-
                 (if rank = 0 then
                    (* Unknown names repeat (a small pool, picked per event
                       by content) so negative cache entries can be re-hit;
                       a fresh id per query would make negative caching
                       unmeasurable. *)
                    let pool = max 1 (p.services / 8) in
                    Id.random
                      (Campaign.keyed seed "svc-unknown"
                         (Hashtbl.hash (seed, "svc-unknown-pick", seq) mod pool))
                  else service_id ~seed rank))
             batch;
           Directory.resolve_batch dir ~now ~n ~from ~services:svcs;
           for i = 0 to n - 1 do
             incr resolves;
             let lat = Directory.res_latency_ms dir i in
             lats := lat :: !lats;
             if Directory.res_hit dir i then
               if Directory.res_positive dir i then incr hits else incr neg_hits
             else begin
               incr misses;
               miss_lats := lat :: !miss_lats
             end;
             if Directory.res_ok dir i then incr ok;
             if Directory.res_stale dir i then incr stale
           done))
  done;
  let (), audit_summary =
    Campaign.observe ?audit ~extra:(fun at_ms -> Checks.services_checks ~at_ms dir) proto
      (fun () -> Shard.run_until coord (float_of_int ticks_total *. tick_ms))
  in
  let sim_end = Shard.now coord in
  let m = Directory.metrics dir in
  let publish_msgs = Metrics.get m Metrics.Svc_publish_msg in
  let resolve_msgs = Metrics.get m Metrics.Svc_resolve_msg in
  let proto_msgs = (Proto.stats proto).Proto.messages in
  let ctrl_msgs = proto_msgs + publish_msgs + resolve_msgs in
  let nresolves = !resolves in
  let lats = List.rev !lats and miss_lats = List.rev !miss_lats in
  let frac a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
  {
    name = net.Campaign.name;
    params = p;
    resolves = nresolves;
    hits = !hits;
    neg_hits = !neg_hits;
    misses = !misses;
    hit_ratio = frac (!hits + !neg_hits) nresolves;
    ok = !ok;
    ok_rate = frac !ok nresolves;
    stale = !stale;
    stale_rate = (if nresolves = 0 then 0.0 else frac !stale nresolves);
    lat_p50_ms = Campaign.percentile_or lats 50.0 ~default:0.0;
    lat_p95_ms = Campaign.percentile_or lats 95.0 ~default:0.0;
    lat_p99_ms = Campaign.percentile_or lats 99.0 ~default:0.0;
    miss_p95_ms = Campaign.percentile_or miss_lats 95.0 ~default:0.0;
    republishes = Metrics.get m Metrics.Svc_republish;
    publish_msgs;
    resolve_msgs;
    resolve_wasted = Directory.resolve_wasted_hops dir;
    resolve_cancels = Directory.resolve_cancellations dir;
    expired = Metrics.get m Metrics.Svc_expired;
    served_expired = Directory.served_expired_total dir;
    records_live = Provider_store.live (Directory.store dir);
    intents_active = Directory.intents_active dir;
    ctrl_msgs;
    ctrl_per_s = (if sim_end <= 0.0 then 0.0 else float_of_int ctrl_msgs /. (sim_end /. 1000.0));
    peak_queue = Shard.peak_global coord;
    events_executed = Shard.executed_total coord;
    event_fingerprint = Shard.fingerprint coord;
    sim_end_ms = sim_end;
    audit = audit_summary;
  }
