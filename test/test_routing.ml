(* Equivalence guard for the shared greedy ring-walk core (lib/routing).

   The golden lines below are the behavioural fingerprint of the seed
   implementations of [Rofl_intra.Network.lookup] and
   [Rofl_inter.Route.route_from], recorded before those walks were ported
   onto [Rofl_routing.Walk].  The scenarios exercise every branch the
   functor owns: greedy ranking with keep-first ties, cache shortcuts that
   must be strictly closer, stale-pointer NACK/restart (the poisoned-cache
   lookup), bloom-filter peer crossings and false-positive backtracking
   (the [fpr] variant), and departed-destination failures.  If a refactor
   of the walk core changes any delivery status, hop count, latency, or
   metrics total here, this test fails.  The interdomain lines were
   re-recorded once when the AS graph's providers and the level climbs took
   explicit orders (draw order, breadth-first discovery order) in place of
   hash-table iteration order, which had made them depend on the hash
   seed. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Sha256 = Rofl_crypto.Sha256
module Internet = Rofl_asgraph.Internet
module Network = Rofl_intra.Network
module Failure = Rofl_intra.Failure
module Vnode = Rofl_core.Vnode
module Metrics = Rofl_netsim.Metrics
module Net = Rofl_inter.Net
module Route = Rofl_inter.Route
module Walk = Rofl_routing.Walk
module Trace = Rofl_routing.Trace

let spread_id k =
  Id.of_bytes_exn (String.sub (Sha256.digest (Printf.sprintf "t:%d" k)) 0 16)

let status_str = function
  | Network.Delivered vn -> "D:" ^ Id.to_short_string vn.Vnode.id
  | Network.Predecessor vn -> "P:" ^ Id.to_short_string vn.Vnode.id
  | Network.Stuck r -> "S:" ^ string_of_int r

(* --- scenarios (identical to the seed-era golden generator) ------------- *)

type intra_outcome = {
  intra_lines : string list;
  intra_results : Network.lookup_result list;
}

(* [traced] hands every scenario walk a fresh trace sink; the fingerprint
   must not depend on it. *)
let sink traced = if traced then Some (Trace.builder ()) else None

let intra_fingerprint ~traced () =
  let lines = ref [] and results = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let keep (r : Network.lookup_result) = results := r :: !results in
  let rng = Prng.create 7 in
  let g = Gen.waxman rng ~n:30 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  let ids = ref [] in
  let joined = ref 0 and join_msgs = ref 0 in
  while !joined < 40 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
    | Ok (id, o) ->
      incr joined;
      join_msgs := !join_msgs + o.Network.join_msgs;
      ids := id :: !ids
    | Error _ -> ()
  done;
  (* A few ephemeral residents so predecessor attachments exist. *)
  let eph = ref 0 in
  while !eph < 3 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Ephemeral with
    | Ok _ -> incr eph
    | Error _ -> ()
  done;
  add "intra-joins msgs=%d ring=%d hosts=%d" !join_msgs (Network.ring_size net)
    (Network.host_count net);
  let ids = Array.of_list (List.rev !ids) in
  (* Failures leave stale state behind so lookups hit repair paths. *)
  ignore (Failure.fail_router net 5 ~pick_gateway:(fun _ -> Some 12));
  ignore (Failure.fail_router net 17 ~pick_gateway:(fun _ -> Some 3));
  ignore (Failure.disconnect_routers net [ 20; 21; 22 ]);
  ignore (Failure.reconnect_routers net [ 20; 21; 22 ]);
  (* Poison caches with a pointer to a router the victim does not live at, so
     the stale-pointer NACK/restart path runs deterministically. *)
  let victim = ids.(7) in
  let victim_router =
    match Network.find_vnode net victim with
    | Some v -> v.Vnode.hosted_at
    | None -> 0
  in
  let wrong = if victim_router = 9 then 10 else 9 in
  Network.cache_route_to net victim wrong (Network.spf_route net 25 wrong);
  let rn =
    Network.lookup ?trace:(sink traced) ~visited:true net ~from:25 ~target:victim
      ~category:Metrics.Data ~use_cache:true
  in
  keep rn;
  add "intra-nack status=%s msgs=%d visited=%d" (status_str rn.Network.status)
    rn.Network.msgs
    (Rofl_core.Sourceroute.routers rn.Network.visited);
  for k = 0 to 29 do
    let from =
      let f = (11 * k) + 2 mod 30 in
      let f = f mod 30 in
      if f = 5 || f = 17 then 0 else f
    in
    let target =
      if k mod 3 = 2 then spread_id k else ids.(k * 5 mod Array.length ids)
    in
    let use_cache = k mod 4 <> 1 in
    let r =
      Network.lookup ?trace:(sink traced) ~visited:true net ~from ~target
        ~category:Metrics.Data ~use_cache
    in
    keep r;
    add "intra#%d status=%s msgs=%d lat=%.12g visited=%d" k (status_str r.Network.status)
      r.Network.msgs r.Network.latency_ms
      (Rofl_core.Sourceroute.routers r.Network.visited)
  done;
  List.iter
    (fun (c, n) -> add "intra-cat %s=%d" c n)
    (Metrics.categories net.Network.metrics);
  { intra_lines = List.rev !lines; intra_results = List.rev !results }

type inter_outcome = {
  inter_lines : string list;
  inter_results : Route.result list;
}

let inter_fingerprint ~traced ~name cfg =
  let lines = ref [] and results = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let rng = Prng.create 11 in
  let inet = Internet.generate rng Internet.small_params in
  let net = Net.create ~cfg ~rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let hosts = ref [] in
  for i = 1 to 120 do
    let s = stubs.(Prng.int rng (Array.length stubs)) in
    let strategy =
      match i mod 4 with
      | 0 -> Net.Ephemeral
      | 1 -> Net.Single_homed
      | 2 -> Net.Multihomed
      | _ -> Net.Peering
    in
    let o = Net.join net ~as_idx:s ~strategy in
    hosts := o.Net.host :: !hosts
  done;
  let hosts = Array.of_list (List.rev !hosts) in
  add "inter[%s]-joins hosts=%d" name (Net.host_count net);
  let route k src dst =
    let r = Route.route_from ?trace:(sink traced) net ~src ~dst in
    results := r :: !results;
    add "inter[%s]#%d del=%b as=%d ptr=%d cache=%d peer=%d back=%d breadth=%d path=%d"
      name k r.Route.delivered r.Route.as_hops r.Route.pointer_hops r.Route.cache_hops
      r.Route.peer_crossings r.Route.backtracks
      (if r.Route.max_level_breadth = max_int then -1 else r.Route.max_level_breadth)
      (List.length r.Route.as_path)
  in
  for k = 0 to 24 do
    let src = hosts.(7 * k mod 120) in
    let dst = hosts.(((13 * k) + 5) mod 120) in
    route k src dst.Net.id
  done;
  (* Routing towards a departed identifier exercises the failure paths. *)
  let dead = hosts.(3) in
  ignore (Net.remove_host net dead.Net.id);
  route 25 hosts.(10) dead.Net.id;
  route 26 hosts.(11) (spread_id 1001);
  List.iter
    (fun (c, n) -> add "inter[%s]-cat %s=%d" name c n)
    (Metrics.categories net.Net.metrics);
  { inter_lines = List.rev !lines; inter_results = List.rev !results }

(* The golden checks run each scenario without trace sinks; the
   trace-invariant checks run it again with them. *)
let bloom_cfg =
  {
    Net.default_config with
    Net.cache_capacity = 64;
    Net.peering_mode = Net.Bloom_filters;
    Net.finger_budget = 30;
  }

let fpr_cfg = { Net.default_config with Net.peering_mode = Net.Bloom_filters; Net.bloom_fpr = 0.35 }


(* --- golden values (recorded from the pre-refactor implementations) ----- *)

let golden_intra =
  [
    "intra-joins msgs=890 ring=70 hosts=43";
    "intra-nack status=D:9fffe474 msgs=2 visited=3";
    "intra#0 status=D:fd1cb4ec msgs=2 lat=10.3646308755 visited=3";
    "intra#1 status=D:a0f3c3de msgs=22 lat=77.706723184 visited=23";
    "intra#2 status=P:31783385 msgs=3 lat=8.97302554905 visited=4";
    "intra#3 status=P:083ac933 msgs=4 lat=30.6953233187 visited=5";
    "intra#4 status=D:3324938f msgs=1 lat=0.949936900687 visited=2";
    "intra#5 status=P:e1551d0f msgs=8 lat=29.6276345119 visited=9";
    "intra#6 status=P:29c39b72 msgs=4 lat=20.6348073402 visited=5";
    "intra#7 status=D:4341a3de msgs=4 lat=16.877407951 visited=5";
    "intra#8 status=P:bd78c0a7 msgs=5 lat=31.6452602194 visited=6";
    "intra#9 status=P:9c0611d7 msgs=5 lat=16.7302029969 visited=6";
    "intra#10 status=P:f911f9a8 msgs=6 lat=17.3985986289 visited=7";
    "intra#11 status=P:80b9cbe4 msgs=7 lat=25.6054212087 visited=8";
    "intra#12 status=P:31783385 msgs=3 lat=9.68298567852 visited=4";
    "intra#13 status=D:b1bbb7b6 msgs=4 lat=13.4899175833 visited=5";
    "intra#14 status=P:897c01e8 msgs=11 lat=40.4899276176 visited=12";
    "intra#15 status=P:3980bbce msgs=3 lat=26.2296249987 visited=4";
    "intra#16 status=D:fd1cb4ec msgs=1 lat=0.949936900687 visited=2";
    "intra#17 status=P:4341a3de msgs=10 lat=35.362509385 visited=11";
    "intra#18 status=P:f911f9a8 msgs=7 lat=21.8954779427 visited=8";
    "intra#19 status=P:083ac933 msgs=3 lat=20.2965490835 visited=4";
    "intra#20 status=P:3980bbce msgs=1 lat=5.8943394189 visited=2";
    "intra#21 status=D:b1bbb7b6 msgs=22 lat=76.9954444467 visited=23";
    "intra#22 status=P:29c39b72 msgs=2 lat=5.60807404261 visited=3";
    "intra#23 status=P:ecc1d4c8 msgs=4 lat=12.7799410247 visited=5";
    "intra#24 status=P:fae495f0 msgs=2 lat=6.82206795837 visited=3";
    "intra#25 status=D:a0f3c3de msgs=6 lat=21.6923207717 visited=7";
    "intra#26 status=P:63ae8803 msgs=9 lat=34.0995892434 visited=10";
    "intra#27 status=D:09d1ea2b msgs=1 lat=3.93397840803 visited=2";
    "intra#28 status=P:31783385 msgs=7 lat=29.8035284188 visited=8";
    "intra#29 status=P:12abbb82 msgs=7 lat=24.0360125892 visited=8";
    "intra-cat data=176";
    "intra-cat flood=2658";
    "intra-cat join=517";
    "intra-cat join-reply=413";
    "intra-cat repair=426";
    "intra-cat teardown=266";
    "intra-cat zero-id=120";
  ]

let golden_inter_default =
  [
    "inter[default]-joins hosts=120";
    "inter[default]#0 del=true as=16 ptr=4 cache=0 peer=0 back=0 breadth=87 path=17";
    "inter[default]#1 del=true as=36 ptr=8 cache=0 peer=0 back=0 breadth=87 path=37";
    "inter[default]#2 del=true as=82 ptr=18 cache=0 peer=0 back=0 breadth=-1 path=83";
    "inter[default]#3 del=true as=42 ptr=8 cache=0 peer=0 back=0 breadth=-1 path=43";
    "inter[default]#4 del=true as=15 ptr=4 cache=0 peer=0 back=0 breadth=87 path=16";
    "inter[default]#5 del=true as=7 ptr=2 cache=0 peer=0 back=0 breadth=20 path=8";
    "inter[default]#6 del=true as=66 ptr=12 cache=0 peer=0 back=0 breadth=-1 path=67";
    "inter[default]#7 del=true as=34 ptr=7 cache=0 peer=0 back=0 breadth=-1 path=35";
    "inter[default]#8 del=true as=35 ptr=7 cache=0 peer=0 back=0 breadth=87 path=36";
    "inter[default]#9 del=true as=9 ptr=3 cache=0 peer=0 back=0 breadth=31 path=10";
    "inter[default]#10 del=true as=4 ptr=1 cache=0 peer=0 back=0 breadth=-1 path=5";
    "inter[default]#11 del=true as=9 ptr=3 cache=0 peer=0 back=0 breadth=31 path=10";
    "inter[default]#12 del=true as=17 ptr=5 cache=0 peer=0 back=0 breadth=-1 path=18";
    "inter[default]#13 del=true as=7 ptr=1 cache=0 peer=0 back=0 breadth=-1 path=8";
    "inter[default]#14 del=true as=65 ptr=15 cache=0 peer=0 back=0 breadth=-1 path=66";
    "inter[default]#15 del=true as=4 ptr=2 cache=0 peer=0 back=0 breadth=87 path=5";
    "inter[default]#16 del=true as=20 ptr=3 cache=0 peer=0 back=0 breadth=-1 path=21";
    "inter[default]#17 del=true as=30 ptr=7 cache=0 peer=0 back=0 breadth=87 path=31";
    "inter[default]#18 del=true as=32 ptr=6 cache=0 peer=0 back=0 breadth=-1 path=33";
    "inter[default]#19 del=true as=14 ptr=3 cache=0 peer=0 back=0 breadth=-1 path=15";
    "inter[default]#20 del=true as=5 ptr=2 cache=0 peer=0 back=0 breadth=5 path=6";
    "inter[default]#21 del=true as=22 ptr=5 cache=0 peer=0 back=0 breadth=44 path=23";
    "inter[default]#22 del=true as=15 ptr=4 cache=0 peer=0 back=0 breadth=-1 path=16";
    "inter[default]#23 del=true as=18 ptr=5 cache=0 peer=0 back=0 breadth=-1 path=19";
    "inter[default]#24 del=true as=21 ptr=7 cache=0 peer=0 back=0 breadth=31 path=22";
    "inter[default]#25 del=false as=11 ptr=3 cache=0 peer=0 back=0 breadth=-1 path=12";
    "inter[default]#26 del=false as=20 ptr=8 cache=0 peer=0 back=0 breadth=87 path=21";
    "inter[default]-cat data=656";
    "inter[default]-cat join=2723";
    "inter[default]-cat join-reply=1272";
    "inter[default]-cat teardown=6";
  ]

let golden_inter_bloom =
  [
    "inter[bloom]-joins hosts=120";
    "inter[bloom]#0 del=true as=12 ptr=3 cache=1 peer=0 back=0 breadth=87 path=13";
    "inter[bloom]#1 del=true as=10 ptr=2 cache=0 peer=0 back=0 breadth=87 path=11";
    "inter[bloom]#2 del=true as=11 ptr=3 cache=1 peer=0 back=0 breadth=-1 path=12";
    "inter[bloom]#3 del=true as=16 ptr=3 cache=1 peer=0 back=0 breadth=-1 path=17";
    "inter[bloom]#4 del=true as=9 ptr=2 cache=1 peer=0 back=0 breadth=15 path=10";
    "inter[bloom]#5 del=true as=7 ptr=2 cache=0 peer=0 back=0 breadth=20 path=8";
    "inter[bloom]#6 del=true as=9 ptr=2 cache=1 peer=1 back=0 breadth=-1 path=10";
    "inter[bloom]#7 del=true as=10 ptr=2 cache=1 peer=0 back=0 breadth=-1 path=11";
    "inter[bloom]#8 del=true as=8 ptr=3 cache=1 peer=0 back=0 breadth=-1 path=9";
    "inter[bloom]#9 del=true as=5 ptr=1 cache=1 peer=0 back=0 breadth=0 path=6";
    "inter[bloom]#10 del=true as=15 ptr=3 cache=0 peer=0 back=0 breadth=-1 path=16";
    "inter[bloom]#11 del=true as=3 ptr=1 cache=0 peer=0 back=0 breadth=31 path=4";
    "inter[bloom]#12 del=true as=9 ptr=1 cache=0 peer=1 back=0 breadth=-1 path=10";
    "inter[bloom]#13 del=true as=9 ptr=2 cache=0 peer=0 back=0 breadth=-1 path=10";
    "inter[bloom]#14 del=true as=26 ptr=6 cache=2 peer=0 back=0 breadth=-1 path=27";
    "inter[bloom]#15 del=true as=4 ptr=2 cache=0 peer=0 back=0 breadth=87 path=5";
    "inter[bloom]#16 del=true as=17 ptr=3 cache=2 peer=0 back=0 breadth=-1 path=18";
    "inter[bloom]#17 del=true as=16 ptr=3 cache=0 peer=1 back=0 breadth=87 path=17";
    "inter[bloom]#18 del=true as=22 ptr=4 cache=2 peer=1 back=0 breadth=-1 path=23";
    "inter[bloom]#19 del=true as=10 ptr=2 cache=1 peer=1 back=0 breadth=-1 path=11";
    "inter[bloom]#20 del=true as=5 ptr=2 cache=0 peer=0 back=0 breadth=5 path=6";
    "inter[bloom]#21 del=true as=14 ptr=3 cache=1 peer=0 back=0 breadth=44 path=15";
    "inter[bloom]#22 del=true as=14 ptr=3 cache=0 peer=1 back=0 breadth=-1 path=15";
    "inter[bloom]#23 del=true as=10 ptr=2 cache=1 peer=1 back=0 breadth=87 path=11";
    "inter[bloom]#24 del=true as=12 ptr=2 cache=1 peer=1 back=0 breadth=44 path=13";
    "inter[bloom]#25 del=false as=7 ptr=2 cache=1 peer=0 back=0 breadth=13 path=8";
    "inter[bloom]#26 del=false as=12 ptr=3 cache=2 peer=0 back=0 breadth=5 path=13";
    "inter[bloom]-cat data=302";
    "inter[bloom]-cat finger=1581";
    "inter[bloom]-cat join=2570";
    "inter[bloom]-cat join-reply=1201";
    "inter[bloom]-cat teardown=6";
  ]

let golden_inter_fpr =
  [
    "inter[fpr]-joins hosts=120";
    "inter[fpr]#0 del=true as=9 ptr=2 cache=0 peer=1 back=0 breadth=87 path=10";
    "inter[fpr]#1 del=true as=36 ptr=8 cache=0 peer=0 back=0 breadth=87 path=37";
    "inter[fpr]#2 del=true as=9 ptr=1 cache=0 peer=1 back=0 breadth=-1 path=10";
    "inter[fpr]#3 del=true as=44 ptr=8 cache=0 peer=1 back=1 breadth=-1 path=43";
    "inter[fpr]#4 del=true as=15 ptr=4 cache=0 peer=0 back=0 breadth=87 path=16";
    "inter[fpr]#5 del=true as=9 ptr=2 cache=0 peer=1 back=1 breadth=20 path=8";
    "inter[fpr]#6 del=true as=8 ptr=1 cache=0 peer=1 back=0 breadth=-1 path=9";
    "inter[fpr]#7 del=true as=38 ptr=7 cache=0 peer=2 back=2 breadth=-1 path=35";
    "inter[fpr]#8 del=true as=13 ptr=2 cache=0 peer=1 back=0 breadth=87 path=14";
    "inter[fpr]#9 del=true as=11 ptr=1 cache=0 peer=2 back=1 breadth=31 path=10";
    "inter[fpr]#10 del=true as=7 ptr=1 cache=0 peer=1 back=0 breadth=-1 path=8";
    "inter[fpr]#11 del=true as=9 ptr=3 cache=0 peer=0 back=0 breadth=31 path=10";
    "inter[fpr]#12 del=true as=9 ptr=1 cache=0 peer=1 back=0 breadth=-1 path=10";
    "inter[fpr]#13 del=true as=7 ptr=1 cache=0 peer=0 back=0 breadth=-1 path=8";
    "inter[fpr]#14 del=true as=71 ptr=15 cache=0 peer=3 back=3 breadth=-1 path=66";
    "inter[fpr]#15 del=true as=4 ptr=2 cache=0 peer=0 back=0 breadth=87 path=5";
    "inter[fpr]#16 del=true as=16 ptr=2 cache=0 peer=1 back=0 breadth=-1 path=17";
    "inter[fpr]#17 del=true as=16 ptr=2 cache=0 peer=2 back=1 breadth=87 path=15";
    "inter[fpr]#18 del=true as=36 ptr=6 cache=0 peer=1 back=0 breadth=-1 path=37";
    "inter[fpr]#19 del=true as=15 ptr=2 cache=0 peer=1 back=0 breadth=-1 path=16";
    "inter[fpr]#20 del=true as=5 ptr=2 cache=0 peer=0 back=0 breadth=5 path=6";
    "inter[fpr]#21 del=true as=17 ptr=2 cache=0 peer=3 back=2 breadth=44 path=14";
    "inter[fpr]#22 del=true as=20 ptr=4 cache=0 peer=2 back=1 breadth=-1 path=19";
    "inter[fpr]#23 del=true as=18 ptr=5 cache=0 peer=0 back=0 breadth=-1 path=19";
    "inter[fpr]#24 del=true as=21 ptr=7 cache=0 peer=0 back=0 breadth=31 path=22";
    "inter[fpr]#25 del=false as=13 ptr=3 cache=0 peer=1 back=1 breadth=-1 path=12";
    "inter[fpr]#26 del=false as=24 ptr=8 cache=0 peer=2 back=2 breadth=87 path=21";
    "inter[fpr]-cat data=500";
    "inter[fpr]-cat join=2570";
    "inter[fpr]-cat join-reply=1201";
    "inter[fpr]-cat teardown=6";
  ]

(* inter-fig's configuration (perfbench): bloom-filter peering, 128-entry
   caches and Peering joins, here on the small Internet.  The walks pin
   every AS of each path and the counts, and the net rng's next draw pins
   how many filter and cache draws the walks took. *)
let interfig_cfg =
  { Net.default_config with Net.peering_mode = Net.Bloom_filters; Net.cache_capacity = 128 }

let interfig_walks () =
  let rng = Prng.create 45 in
  let inet = Internet.generate rng Internet.small_params in
  let net_rng = Prng.split rng in
  let net = Net.create ~cfg:interfig_cfg ~rng:net_rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let hosts =
    Array.init 150 (fun _ ->
        (Net.join net ~as_idx:(Prng.sample rng stubs) ~strategy:Net.Peering).Net.host)
  in
  let walks =
    List.init 40 (fun k ->
        let src = Prng.sample rng hosts and dst = (Prng.sample rng hosts).Net.id in
        let r = Route.route_from net ~src ~dst in
        Printf.sprintf "#%d del=%b as=%d ptr=%d cache=%d peer=%d back=%d path=%s" k
          r.Route.delivered r.Route.as_hops r.Route.pointer_hops r.Route.cache_hops
          r.Route.peer_crossings r.Route.backtracks
          (String.concat "." (List.map string_of_int r.Route.as_path)))
  in
  let cats =
    List.map (fun (c, n) -> Printf.sprintf "cat %s=%d" c n) (Metrics.categories net.Net.metrics)
  in
  let load = Metrics.router_load net.Net.metrics in
  let load_line =
    Printf.sprintf "load sum=%d hash=%d" (Array.fold_left ( + ) 0 load)
      (Array.fold_left (fun h l -> ((h * 31) + l) land 0x3fffffff) 0 load)
  in
  (walks @ cats @ [ load_line ], Prng.bits64 net_rng)

let golden_interfig =
  [
    "#0 del=true as=14 ptr=5 cache=3 peer=0 back=0 path=55.41.7.28.107.28.50.22.98.17.48.17.9.16.89";
    "#1 del=true as=15 ptr=5 cache=4 peer=1 back=0 path=89.16.63.16.113.16.72.16.97.16.9.4.103.4.34.94";
    "#2 del=true as=6 ptr=1 cache=0 peer=1 back=0 path=62.4.33.92.9.33.66";
    "#3 del=true as=16 ptr=5 cache=3 peer=0 back=0 path=91.22.8.76.8.22.78.22.50.22.88.22.8.2.7.41.55";
    "#4 del=true as=7 ptr=2 cache=1 peer=0 back=0 path=92.33.4.103.4.0.35.119";
    "#5 del=true as=11 ptr=2 cache=0 peer=0 back=0 path=68.30.6.1.13.23.100.23.13.1.26.78";
    "#6 del=true as=10 ptr=2 cache=1 peer=0 back=0 path=73.14.3.6.33.92.33.6.0.5.115";
    "#7 del=true as=6 ptr=2 cache=1 peer=0 back=0 path=76.8.22.78.22.8.103";
    "#8 del=true as=4 ptr=2 cache=0 peer=0 back=0 path=58.16.70.16.97";
    "#9 del=true as=9 ptr=1 cache=0 peer=1 back=0 path=82.5.0.9.16.56.2.7.41.55";
    "#10 del=true as=15 ptr=3 cache=1 peer=0 back=0 path=88.22.8.2.7.41.55.41.7.9.17.46.17.5.21.49";
    "#11 del=true as=23 ptr=6 cache=2 peer=0 back=0 path=49.21.5.17.50.22.78.38.5.95.11.1.9.16.97.16.9.1.8.103.8.1.13.111";
    "#12 del=true as=9 ptr=2 cache=1 peer=1 back=0 path=79.28.7.67.4.18.93.9.17.93";
    "#13 del=true as=16 ptr=4 cache=1 peer=1 back=0 path=116.16.58.16.70.16.9.1.39.83.39.1.11.105.0.11.105";
    "#14 del=true as=8 ptr=3 cache=3 peer=0 back=0 path=70.20.58.16.77.16.9.17.98";
    "#15 del=true as=0 ptr=0 cache=0 peer=0 back=0 path=68";
    "#16 del=true as=5 ptr=2 cache=1 peer=0 back=0 path=84.9.17.48.31.66";
    "#17 del=true as=8 ptr=2 cache=1 peer=1 back=0 path=62.4.103.4.28.50.9.33.66";
    "#18 del=true as=18 ptr=6 cache=2 peer=0 back=0 path=91.22.88.22.8.103.4.28.50.17.48.31.4.21.49.21.4.34.53";
    "#19 del=true as=18 ptr=5 cache=2 peer=0 back=0 path=82.5.17.48.31.4.106.15.1.9.16.58.16.70.16.9.1.39.83";
    "#20 del=true as=16 ptr=3 cache=1 peer=1 back=0 path=105.11.0.5.38.78.22.8.76.8.2.0.4.51.0.4.51";
    "#21 del=true as=11 ptr=2 cache=1 peer=1 back=0 path=79.28.4.19.90.19.4.33.92.9.33.92";
    "#22 del=true as=6 ptr=3 cache=0 peer=0 back=0 path=70.16.97.16.56.16.113";
    "#23 del=true as=6 ptr=2 cache=0 peer=0 back=0 path=108.42.4.103.8.22.88";
    "#24 del=true as=8 ptr=1 cache=0 peer=1 back=0 path=73.14.1.9.16.61.0.11.105";
    "#25 del=true as=20 ptr=4 cache=2 peer=0 back=0 path=68.30.6.1.9.17.48.17.5.21.81.21.4.28.107.28.7.2.8.22.88";
    "#26 del=true as=13 ptr=3 cache=2 peer=0 back=0 path=116.18.4.28.107.28.4.33.92.33.6.0.5.115";
    "#27 del=true as=9 ptr=1 cache=0 peer=1 back=0 path=73.14.1.9.16.61.0.9.16.61";
    "#28 del=true as=7 ptr=2 cache=0 peer=0 back=0 path=116.18.4.19.58.19.4.75";
    "#29 del=true as=8 ptr=1 cache=0 peer=1 back=0 path=59.7.0.6.30.68.1.15.75";
    "#30 del=true as=6 ptr=1 cache=0 peer=1 back=0 path=47.4.21.60.9.16.113";
    "#31 del=true as=4 ptr=2 cache=2 peer=0 back=0 path=88.22.50.17.96";
    "#32 del=true as=9 ptr=3 cache=2 peer=0 back=0 path=95.11.105.11.0.4.20.70.16.63";
    "#33 del=true as=2 ptr=1 cache=0 peer=0 back=0 path=77.16.58";
    "#34 del=true as=15 ptr=3 cache=1 peer=0 back=0 path=103.4.28.107.28.7.2.8.22.88.22.8.1.10.19.101";
    "#35 del=true as=4 ptr=1 cache=0 peer=0 back=0 path=63.16.9.17.110";
    "#36 del=true as=4 ptr=2 cache=1 peer=0 back=0 path=101.19.58.20.70";
    "#37 del=true as=6 ptr=1 cache=0 peer=1 back=0 path=108.42.4.47.9.16.77";
    "#38 del=true as=12 ptr=3 cache=1 peer=0 back=0 path=84.9.17.48.17.5.21.49.21.5.0.35.119";
    "#39 del=true as=13 ptr=4 cache=1 peer=0 back=0 path=112.4.42.108.42.4.106.4.24.117.17.5.21.81";
    "cat data=397";
    "cat join=3180";
    "cat join-reply=1449";
    "load sum=553 hash=397810257";
  ]

let golden_interfig_next_draw = 0xcff21be4a3fc2fc1L

(* --- tests -------------------------------------------------------------- *)

let check_lines name expected actual =
  Alcotest.(check (list string)) name expected actual

let test_golden_intra () =
  check_lines "intra fingerprint" golden_intra (intra_fingerprint ~traced:false ()).intra_lines

let test_golden_inter_default () =
  check_lines "inter default fingerprint" golden_inter_default
    (inter_fingerprint ~traced:false ~name:"default" Net.default_config).inter_lines

let test_golden_inter_bloom () =
  check_lines "inter bloom fingerprint" golden_inter_bloom
    (inter_fingerprint ~traced:false ~name:"bloom" bloom_cfg).inter_lines

let test_golden_interfig () =
  let lines, next = interfig_walks () in
  check_lines "inter-fig walks" golden_interfig lines;
  Alcotest.(check int64) "net rng's next draw" golden_interfig_next_draw next

let test_golden_inter_fpr () =
  check_lines "inter fpr fingerprint" golden_inter_fpr
    (inter_fingerprint ~traced:false ~name:"fpr" fpr_cfg).inter_lines

(* Walk.best: minimum clockwise distance wins; ties keep the earliest
   element, which is how enumeration order encodes ring-before-cache
   precedence. *)
let test_walk_best () =
  let target = Id.zero in
  (* Encode "distance d to the target" as the id sitting d counter-clockwise
     of it. *)
  let id_of (d, _) = Id.sub target (Id.of_int d) in
  Alcotest.(check bool) "empty" true (Walk.best ~target ~id_of [] = None);
  let pick cands =
    match Walk.best ~target ~id_of cands with
    | Some (_, tag) -> tag
    | None -> Alcotest.fail "expected a candidate"
  in
  Alcotest.(check string) "minimum wins" "b" (pick [ (9, "a"); (2, "b"); (5, "c") ]);
  Alcotest.(check string) "tie keeps first" "ring" (pick [ (4, "ring"); (4, "cache") ]);
  Alcotest.(check string)
    "strictly closer replaces" "cache"
    (pick [ (4, "ring"); (3, "cache") ]);
  Alcotest.(check string) "zero is the target itself" "t" (pick [ (1, "x"); (0, "t") ])

(* The trace is not a separate account of the walk: its event totals must
   agree with the counters each layer already maintained.  The scenarios
   run again with a sink per walk, and must still match their goldens. *)
let test_trace_invariants_intra () =
  let o = intra_fingerprint ~traced:true () in
  check_lines "intra fingerprint with sinks" golden_intra o.intra_lines;
  Alcotest.(check bool) "ran lookups" true (o.intra_results <> []);
  List.iter
    (fun (r : Network.lookup_result) ->
      let tr = r.Network.trace in
      Alcotest.(check int)
        "intra: one Ring/Cache event per message" r.Network.msgs
        (Trace.count tr Trace.Ring + Trace.count tr Trace.Cache);
      Alcotest.(check int) "intra: no peer crossings" 0 (Trace.count tr Trace.Flood))
    o.intra_results

let test_trace_invariants_inter () =
  let check_outcome (o : inter_outcome) =
    Alcotest.(check bool) "ran routes" true (o.inter_results <> []);
    List.iter
      (fun (r : Route.result) ->
        let tr = r.Route.trace in
        Alcotest.(check int) "inter: one Cache event per cache hop" r.Route.cache_hops
          (Trace.count tr Trace.Cache);
        Alcotest.(check int) "inter: one Flood event per peer crossing"
          r.Route.peer_crossings (Trace.count tr Trace.Flood);
        Alcotest.(check int) "inter: one Backtrack event per reversal"
          r.Route.backtracks (Trace.count tr Trace.Backtrack);
        (* Transit-diverted moves count as pointer hops but terminate before
           the Ring event is recorded, so Ring events only bound from below. *)
        Alcotest.(check bool) "inter: Ring events within pointer hops" true
          (Trace.count tr Trace.Ring <= r.Route.pointer_hops - r.Route.cache_hops))
      o.inter_results
  in
  List.iter
    (fun (name, cfg, golden) ->
      let o = inter_fingerprint ~traced:true ~name cfg in
      check_lines ("inter " ^ name ^ " fingerprint with sinks") golden o.inter_lines;
      check_outcome o)
    [
      ("default", Net.default_config, golden_inter_default);
      ("bloom", bloom_cfg, golden_inter_bloom);
      ("fpr", fpr_cfg, golden_inter_fpr);
    ]

(* A sink only observes.  Twin networks built from one seed take the same
   random walks, one twin with a sink per walk and one without: every
   verdict, cost and path must agree, and so must the charged counters
   (stale-pointer NACKs prune state, so a diverging walk would show). *)
let intra_twin seed =
  let rng = Prng.create seed in
  let g = Gen.waxman rng ~n:30 ~alpha:0.4 ~beta:0.2 in
  let net = Network.create ~rng g in
  let ids = ref [] in
  while List.length !ids < 30 do
    match Network.join_fresh_host net ~gateway:(Prng.int rng 30) ~cls:Vnode.Stable with
    | Ok (id, _) -> ids := id :: !ids
    | Error _ -> ()
  done;
  let dead = seed mod 30 in
  ignore (Failure.fail_router net dead ~pick_gateway:(fun _ -> Some ((dead + 1) mod 30)));
  (net, Array.of_list !ids, dead, rng)

let intra_walks ~traced seed =
  let net, ids, dead, rng = intra_twin seed in
  let walks =
    List.init 40 (fun _ ->
        let from = Prng.int rng 30 in
        let from = if from = dead then (from + 1) mod 30 else from in
        let target = if Prng.bool rng then Prng.sample rng ids else Id.random rng in
        let r =
          Network.lookup ?trace:(sink traced) ~visited:true net ~from ~target
            ~category:Metrics.Data ~use_cache:(Prng.bool rng)
        in
        (status_str r.Network.status, r.Network.msgs, r.Network.latency_ms, r.Network.visited))
  in
  (walks, Metrics.categories net.Network.metrics)

let prop_intra_sink_observes =
  QCheck.Test.make ~name:"intra walk: same verdict, cost and path with or without a sink"
    ~count:15 QCheck.(int_range 1 100_000)
    (fun seed -> intra_walks ~traced:true seed = intra_walks ~traced:false seed)

let inter_walks ~traced seed =
  let rng = Prng.create seed in
  let inet = Internet.generate rng Internet.small_params in
  let net = Net.create ~cfg:bloom_cfg ~rng inet.Internet.graph in
  let stubs = Array.of_list (Internet.stubs inet) in
  let hosts =
    Array.init 60 (fun i ->
        let strategy = if i mod 2 = 0 then Net.Multihomed else Net.Peering in
        (Net.join net ~as_idx:(Prng.sample rng stubs) ~strategy).Net.host)
  in
  let walks =
    List.init 30 (fun _ ->
        let src = Prng.sample rng hosts and dst = Prng.sample rng hosts in
        let r = Route.route_from ?trace:(sink traced) net ~src ~dst:dst.Net.id in
        ( r.Route.delivered,
          r.Route.as_path,
          [ r.Route.as_hops; r.Route.pointer_hops; r.Route.cache_hops;
            r.Route.peer_crossings; r.Route.backtracks ] ))
  in
  (walks, Metrics.categories net.Net.metrics)

let prop_inter_sink_observes =
  QCheck.Test.make ~name:"inter walk: same verdict, cost and path with or without a sink"
    ~count:8 QCheck.(int_range 1 100_000)
    (fun seed -> inter_walks ~traced:true seed = inter_walks ~traced:false seed)

let test_trace_counts_shape () =
  Alcotest.(check (list (pair string int)))
    "all kinds always listed"
    [ ("ring", 0); ("cache", 0); ("flood", 0); ("backtrack", 0) ]
    (Trace.counts [])

let () =
  Alcotest.run "routing"
    [
      ( "golden",
        [
          Alcotest.test_case "intra fingerprint" `Slow test_golden_intra;
          Alcotest.test_case "inter default fingerprint" `Slow test_golden_inter_default;
          Alcotest.test_case "inter bloom fingerprint" `Slow test_golden_inter_bloom;
          Alcotest.test_case "inter fpr fingerprint" `Slow test_golden_inter_fpr;
          Alcotest.test_case "inter-fig walks" `Slow test_golden_interfig;
        ] );
      ( "walk",
        [
          Alcotest.test_case "best ranking" `Quick test_walk_best;
          Alcotest.test_case "trace counts shape" `Quick test_trace_counts_shape;
          Alcotest.test_case "intra trace invariants" `Slow test_trace_invariants_intra;
          Alcotest.test_case "inter trace invariants" `Slow test_trace_invariants_inter;
          QCheck_alcotest.to_alcotest prop_intra_sink_observes;
          QCheck_alcotest.to_alcotest prop_inter_sink_observes;
        ] );
    ]
