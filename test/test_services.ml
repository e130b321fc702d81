(* The service-discovery layer: provider records with TTL/republish/caching
   resolved through the α-branch owner walk.

   Pins (1) the provider store against a records-present-iff-not-expired
   model, (2) the walk's stats against the sequential [lookup_owner]
   reference, a directory α below 1 rejected and a batch's misses walked
   before any of its answers is installed, (3) the doctor's service checks
   — green on a healthy directory, firing on an injected residency fault
   (ring ownership moved under a placed record) and on the serve-stale
   fault knob — and (4) campaign byte-identity across shard counts. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Graph = Rofl_topology.Graph
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
module Proto = Rofl_proto.Proto
module Owner = Rofl_proto.Owner
module Provider_store = Rofl_services.Provider_store
module Resolver = Rofl_services.Resolver
module Directory = Rofl_services.Directory
module Checks = Rofl_doctor.Checks
module Audit = Rofl_doctor.Audit
module Sc = Rofl_dynamics.Services_campaign

let small_isp seed = Isp.generate (Prng.create seed) Isp.as3967

let make_proto ?(hosts = 150) seed =
  let isp = small_isp seed in
  ( Proto.create ~rng:(Prng.create (seed + 1)) ~bootstrap_hosts:hosts isp.Isp.graph,
    isp )

(* ---- provider store ------------------------------------------------------ *)

let test_store_basics () =
  let st = Provider_store.create ~routers:8 ~hint:4 () in
  let svc = Id.random (Prng.create 1) and prov = Id.random (Prng.create 2) in
  (match Provider_store.publish st ~service:svc ~provider:prov ~owner:3
           ~now:0.0 ~ttl_ms:100.0 with
   | `Placed _ -> ()
   | `Refreshed _ -> Alcotest.fail "fresh publish reported as refresh");
  Alcotest.(check int) "live" 1 (Provider_store.live st);
  (* same pair, same owner: refresh *)
  (match Provider_store.publish st ~service:svc ~provider:prov ~owner:3
           ~now:50.0 ~ttl_ms:100.0 with
   | `Refreshed _ -> ()
   | `Placed _ -> Alcotest.fail "refresh reported as fresh placement");
  Alcotest.(check int) "still one record" 1 (Provider_store.live st);
  (* same pair at a different owner: a second copy (the old one decays) *)
  ignore
    (Provider_store.publish st ~service:svc ~provider:prov ~owner:5
       ~now:60.0 ~ttl_ms:100.0);
  Alcotest.(check int) "copy per owner" 2 (Provider_store.live st);
  let buf = Array.make (Provider_store.service_records st svc) Id.zero in
  Alcotest.(check int) "providers at owner 3" 1
    (Provider_store.providers_at_into st ~service:svc ~at:3 ~now:100.0 buf);
  (* owner-3 copy expires at 150; the sweep drops exactly it *)
  Alcotest.(check int) "sweep drops the decayed copy" 1
    (Provider_store.sweep st ~now:151.0);
  Alcotest.(check int) "survivor" 1 (Provider_store.live st);
  Alcotest.(check int) "no provider served at old owner" 0
    (Provider_store.providers_at_into st ~service:svc ~at:3 ~now:151.0 buf)

(* Records present iff not expired, against a (service, provider, owner) ->
   expiry map driven by the same op sequence.  Time only moves forward. *)
let prop_store_matches_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map2 (fun i ttl -> `Publish (i, float_of_int (ttl + 1) *. 40.0))
                (int_bound 5) (int_bound 9));
          (2, return `Sweep);
        ])
  in
  let print_op = function
    | `Publish (i, ttl) -> Printf.sprintf "publish %d ttl=%.0f" i ttl
    | `Sweep -> "sweep"
  in
  QCheck.Test.make ~name:"store holds a record iff it has not expired" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let st = Provider_store.create ~routers:4 ~hint:2 () in
      let svc = Array.init 3 (fun k -> Id.random (Prng.create (k + 10))) in
      let prov = Array.init 2 (fun k -> Id.random (Prng.create (k + 20))) in
      (* triple i <-> (service, provider, owner) *)
      let of_i i = (svc.(i mod 3), prov.(i / 3 mod 2), i mod 4) in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (step, op) ->
          let now = float_of_int step *. 30.0 in
          (match op with
           | `Publish (i, ttl) ->
             let service, provider, owner = of_i i in
             ignore
               (Provider_store.publish st ~service ~provider ~owner ~now
                  ~ttl_ms:ttl);
             Hashtbl.replace model i (now +. ttl)
           | `Sweep ->
             ignore (Provider_store.sweep st ~now);
             Hashtbl.iter
               (fun i exp -> if exp < now then Hashtbl.remove model i)
               (Hashtbl.copy model));
          (* every triple: stored iff in the model (expired-but-unswept rows
             are still resident — that is what the sweep cadence is for) *)
          List.for_all
            (fun i ->
              let service, provider, owner = of_i i in
              let slot = Provider_store.find st ~service ~provider ~owner in
              Hashtbl.mem model i = (slot >= 0))
            [ 0; 1; 2; 3; 4; 5 ]
          && Provider_store.live st = Hashtbl.length model)
        (List.mapi (fun step op -> (step, op)) ops))

(* ---- walk stats vs the sequential reference ----------------------------- *)

let test_batch_stats_equivalence () =
  let proto, isp = make_proto 42 in
  let n = 64 in
  let rng = Prng.create 7 in
  let members = Array.of_list (Proto.members proto) in
  let pn = Graph.n isp.Isp.graph in
  let from = Array.init n (fun _ -> Prng.int rng pn) in
  let targets =
    Array.init n (fun k ->
        if k mod 3 = 0 then Id.random rng
        else members.(Prng.int rng (Array.length members)))
  in
  (* the α=1 walk the directory places and resolves through *)
  let w = Owner.owner_walk ~alpha:1 in
  for k = 0 to n - 1 do
    Owner.walk_owner proto w ~from:from.(k) ~target:targets.(k);
    let resolved = w.w_winner >= 0 in
    (match (Owner.lookup_owner proto ~from:from.(k) targets.(k), resolved) with
     | Some expect, true ->
       Alcotest.(check bool)
         (Printf.sprintf "owner %d matches lookup_owner" k)
         true (Id.equal expect w.w_owner);
       (* the verdict router is where the owner identifier actually lives *)
       (match Proto.locate proto w.w_owner with
        | Some r -> Alcotest.(check int) "owner router" r w.w_router.(w.w_winner)
        | None -> Alcotest.fail "resolved owner not locatable")
     | None, false -> ()
     | Some _, false | None, true ->
       Alcotest.failf "lookup %d: walk and sequential disagree on success" k);
    if resolved then begin
      let link_hops = w.w_link_hops.(w.w_winner) in
      if w.w_latency_ms.(w.w_winner) < 0.0 then Alcotest.fail "negative latency";
      if link_hops < 0 then Alcotest.fail "negative link hops";
      if from.(k) <> w.w_router.(w.w_winner) && w.w_hops.(w.w_winner) = 0 && link_hops > 0
      then Alcotest.fail "link hops without ring hops"
    end
  done

let test_directory_rejects_alpha_below_one () =
  let proto, _ = make_proto ~hosts:20 43 in
  List.iter
    (fun alpha ->
      match
        Directory.create ~proto ~routers:8 ~hint:4
          { Directory.default_config with alpha }
      with
      | _ -> Alcotest.failf "Directory.create accepted alpha=%d" alpha
      | exception Invalid_argument _ -> ())
    [ 0; -3 ]

(* Every hit/miss decision of a batch is made before any of its answers is
   installed: a later query of the same (resolver, service) as an earlier
   miss misses too, walks to the same owner and gets the same answer; the
   next batch hits the installed entry. *)
let test_batch_misses_install_after_lookup () =
  let proto, _ = make_proto 44 in
  let dir = Directory.create ~proto ~routers:256 ~hint:4 Directory.default_config in
  let svc = Id.random (Prng.create 41) in
  ignore (Directory.register dir ~service:svc ~provider:(Id.random (Prng.create 42)) ~origin:2);
  ignore (Directory.republish_due dir ~now:0.0);
  let from = [| 5; 5 |] and services = [| svc; svc |] in
  Directory.resolve_batch dir ~now:10.0 ~n:2 ~from ~services;
  for i = 0 to 1 do
    Alcotest.(check bool) (Printf.sprintf "query %d misses" i) false (Directory.res_hit dir i);
    Alcotest.(check bool) (Printf.sprintf "query %d answered" i) true
      (Directory.res_positive dir i && Directory.res_ok dir i)
  done;
  Alcotest.(check bool) "same answer latency" true
    (Int64.equal
       (Int64.bits_of_float (Directory.res_latency_ms dir 0))
       (Int64.bits_of_float (Directory.res_latency_ms dir 1)));
  Directory.resolve_batch dir ~now:20.0 ~n:1 ~from ~services;
  Alcotest.(check bool) "next batch hits" true (Directory.res_hit dir 0);
  Alcotest.(check bool) "hit answers the same" true
    (Directory.res_positive dir 0 && Directory.res_ok dir 0)

(* ---- doctor checks ------------------------------------------------------- *)

let directory_on proto ~seed ~intents =
  let gateways = [| 0; 1; 2; 3 |] in
  let dir = Directory.create ~proto ~routers:256 ~hint:intents Directory.default_config in
  let rng = Prng.create seed in
  for _ = 1 to intents do
    ignore
      (Directory.register dir ~service:(Id.random rng) ~provider:(Id.random rng)
         ~origin:gateways.(Prng.int rng (Array.length gateways)))
  done;
  ignore (Directory.republish_due dir ~now:0.0);
  dir

let test_checks_clean () =
  let proto, _ = make_proto 51 in
  let dir = directory_on proto ~seed:5 ~intents:12 in
  Alcotest.(check int) "healthy directory audits green" 0
    (List.length (Checks.services_checks ~at_ms:0.0 dir))

let test_checks_residency_fault () =
  let proto, _ = make_proto 52 in
  let dir = directory_on proto ~seed:6 ~intents:12 in
  (* Crash the ring owners of the first few services: ownership moves, the
     placed copies stay behind, and — once the ring has reconverged — the
     residency check must notice at least one displaced placement. *)
  let coord = Proto.coordinator proto in
  let owners =
    List.filter_map
      (fun k ->
        if k < 4 then Owner.lookup_owner proto ~from:0 (Directory.intent_service dir k)
        else None)
      [ 0; 1; 2; 3 ]
    |> List.sort_uniq Id.compare
  in
  Shard.at_global coord ~time_ms:10.0 (fun () ->
      List.iter (fun id -> ignore (Proto.crash proto id)) owners);
  Proto.start_stabilizer proto;
  Shard.run_until coord 3_000.0;
  Proto.stop_stabilizer proto;
  Alcotest.(check bool) "ring reconverged" true (Proto.ring_converged proto);
  let vs = Checks.services_checks ~at_ms:3_000.0 dir in
  let residency = List.filter (fun v -> v.Checks.check = "svc-residency") vs in
  Alcotest.(check bool) "residency fault caught" true (residency <> []);
  (* the repair is a republish: records re-place at the new owners *)
  ignore (Directory.republish_all dir ~now:3_000.0);
  ignore (Directory.sweep dir ~now:(3_000.0 +. Directory.ttl_ms));
  let vs = Checks.services_checks ~at_ms:3_000.0 dir in
  Alcotest.(check int) "republish repairs residency" 0
    (List.length (List.filter (fun v -> v.Checks.check = "svc-residency") vs))

let test_checks_expiry_fault () =
  let proto, _ = make_proto 53 in
  let dir = directory_on proto ~seed:7 ~intents:4 in
  (* Plant a record with a tiny TTL and never sweep: once past TTL + grace
     it is a violation of the sweep-cadence invariant. *)
  ignore
    (Provider_store.publish (Directory.store dir) ~service:(Id.random (Prng.create 99))
       ~provider:(Id.random (Prng.create 98)) ~owner:1 ~now:0.0 ~ttl_ms:1.0);
  let grace = 2.0 *. Directory.republish_period_ms in
  let vs = Checks.services_checks ~at_ms:(1.0 +. grace +. 1.0) dir in
  let expiry = List.filter (fun v -> v.Checks.check = "svc-expiry") vs in
  Alcotest.(check bool) "unswept expired record caught" true (expiry <> []);
  (* a sweep clears it *)
  ignore (Directory.sweep dir ~now:(1.0 +. grace +. 1.0));
  let vs = Checks.services_checks ~at_ms:(1.0 +. grace +. 1.0) dir in
  Alcotest.(check int) "sweep clears the expiry violation" 0
    (List.length (List.filter (fun v -> v.Checks.check = "svc-expiry") vs))

let test_checks_serve_stale_fault () =
  let proto, _ = make_proto 54 in
  let cfg =
    {
      Directory.default_config with
      Directory.cache = { Resolver.default_config with Resolver.serve_stale = true };
    }
  in
  let dir = Directory.create ~proto ~routers:256 ~hint:4 cfg in
  let svc = Id.random (Prng.create 31) in
  ignore (Directory.register dir ~service:svc ~provider:(Id.random (Prng.create 32)) ~origin:0);
  ignore (Directory.republish_due dir ~now:0.0);
  let from = [| 0 |] and services = [| svc |] in
  (* miss installs the entry; the second resolve is past the 2 s freshness
     window + the grace, and the fault knob serves it anyway *)
  let late = 2_000.0 +. Resolver.stale_grace_ms +. 1_000.0 in
  Directory.resolve_batch dir ~now:0.0 ~n:1 ~from ~services;
  Directory.resolve_batch dir ~now:late ~n:1 ~from ~services;
  Alcotest.(check bool) "stale answer served under the knob" true
    (Directory.served_expired_total dir > 0);
  let vs = Checks.services_checks ~at_ms:late dir in
  Alcotest.(check bool) "doctor catches the served-expired answer" true
    (List.exists (fun v -> v.Checks.check = "svc-stale-serve") vs)

(* ---- campaign determinism ------------------------------------------------ *)

let campaign_params =
  {
    Sc.default_params with
    Sc.horizon_ms = 3_000.0;
    drain_ms = 300.0;
    bootstrap_hosts = 120;
    services = 15;
    rate_per_s = 50.0;
    flash_start_ms = 600.0;
    flash_len_ms = 300.0;
    storm_at_ms = 1_000.0;
  }

let run_at shards =
  Sc.run ~seed:11
    ~audit:(Audit.config_for campaign_params.Sc.proto_cfg)
    ~shards
    (Rofl_dynamics.Campaign.network ~seed:11 Isp.as3967)
    campaign_params

let test_campaign_sanity () =
  let r = run_at 1 in
  Alcotest.(check bool) "resolves happened" true (r.Sc.resolves > 0);
  Alcotest.(check bool) "cache absorbed repeats" true (r.Sc.hits > 0);
  Alcotest.(check bool) "some resolutions walked the ring" true (r.Sc.misses > 0);
  Alcotest.(check bool) "oracle-correct answers dominate" true (r.Sc.ok_rate > 0.9);
  Alcotest.(check int) "no stale answers served past grace" 0 r.Sc.served_expired;
  Alcotest.(check bool) "records placed" true (r.Sc.records_live > 0);
  (match r.Sc.audit with
   | None -> Alcotest.fail "audit missing"
   | Some s ->
     Alcotest.(check bool) "checkpoints ran" true (s.Rofl_doctor.Audit.checkpoints > 0);
     Alcotest.(check int) "campaign audits green" 0
       s.Rofl_doctor.Audit.total_violations)

let test_campaign_shard_determinism () =
  let r1 = run_at 1 in
  List.iter
    (fun shards ->
      let r = run_at shards in
      Alcotest.(check bool)
        (Printf.sprintf "report identical at shards=%d" shards)
        true (r = r1))
    [ 2; 4 ]

let () =
  Alcotest.run "rofl_services"
    [
      ( "store",
        [
          Alcotest.test_case "publish/refresh/sweep" `Quick test_store_basics;
          QCheck_alcotest.to_alcotest prop_store_matches_model;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "batch stats match sequential walks" `Quick
            test_batch_stats_equivalence;
          Alcotest.test_case "directory rejects alpha < 1" `Quick
            test_directory_rejects_alpha_below_one;
          Alcotest.test_case "batch misses install after every lookup" `Quick
            test_batch_misses_install_after_lookup;
        ] );
      ( "doctor",
        [
          Alcotest.test_case "healthy directory green" `Quick test_checks_clean;
          Alcotest.test_case "residency fault caught and repaired" `Quick
            test_checks_residency_fault;
          Alcotest.test_case "unswept expiry caught" `Quick test_checks_expiry_fault;
          Alcotest.test_case "serve-stale knob caught" `Quick
            test_checks_serve_stale_fault;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "SLOs sane and audits green" `Quick test_campaign_sanity;
          Alcotest.test_case "byte-identical at shards 1/2/4" `Quick
            test_campaign_shard_determinism;
        ] );
    ]
