(* Shard-determinism contract: a campaign is a pure function of
   (seed, graph, params, events) and the shard count is pure execution
   configuration — running the same campaign at --shards 1, 2 and 4 must
   produce the same report byte for byte, down to the event-order
   fingerprint.  Same discipline as test_pool.ml's jobs-1-vs-jobs-4 table
   comparison, one level deeper: here the event engine itself is
   partitioned, so any window sized too optimistically, any cross-shard
   message outrunning the conservative barrier, or any tie broken by
   arrival order instead of the (time, rail, seq) key shows up as a
   fingerprint or SLO mismatch. *)

module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Types = Rofl_proto.Types
module Campaign = Rofl_dynamics.Campaign
module Id = Rofl_idspace.Id
module Shard = Rofl_netsim.Shard

(* Small topology, short horizon: contiguous ID-range partitioning over 24
   routers puts every shard boundary in play, and gateway draws scatter
   joins and lookup origins across shards, so cross-shard RPCs dominate. *)
let profile = { Isp.profile_name = "shard-mini"; routers = 24; hosts = 1_000; pop_count = 3 }

let params ~bootstrap ~arrival ~lookups =
  {
    Campaign.default_params with
    Campaign.horizon_ms = 1_200.0;
    arrival_rate_per_s = arrival;
    mean_lifetime_s = 1.0;
    move_fraction = 0.2;
    crash_fraction = 0.3;
    lookup_rate_per_s = lookups;
    lookup_warmup_ms = 100.0;
    drain_max_ms = 4_000.0;
    bootstrap_hosts = bootstrap;
  }

let report ~seed ~shards p = Campaign.run ~seed ~shards (Campaign.network ~seed profile) p

(* Structural comparison via [compare], not [=]: an unconverged campaign
   reports [reconverge_ms = nan], and [nan = nan] is false while
   [compare nan nan = 0]. *)
let same_report a b = compare (a : Campaign.report) (b : Campaign.report) = 0

let prop_sharding_invisible =
  QCheck.Test.make ~name:"report byte-identical at shards 1/2/4" ~count:6
    QCheck.(triple (int_range 0 1000) (int_range 0 200) (int_range 0 2))
    (fun (seed, bootstrap, intensity) ->
      let p =
        params ~bootstrap
          ~arrival:(float_of_int (2 + (2 * intensity)))
          ~lookups:(float_of_int (5 * intensity))
      in
      let base = report ~seed ~shards:1 p in
      List.for_all
        (fun shards ->
          let r = report ~seed ~shards p in
          if r.Campaign.event_fingerprint <> base.Campaign.event_fingerprint then
            QCheck.Test.fail_reportf
              "event fingerprint diverged at shards=%d: %016Lx vs %016Lx" shards
              (Int64.of_int r.Campaign.event_fingerprint)
              (Int64.of_int base.Campaign.event_fingerprint)
          else if not (same_report r base) then
            QCheck.Test.fail_reportf
              "report diverged at shards=%d despite equal fingerprints \
               (lookups %d vs %d, ok %d vs %d, msgs %d vs %d, events %d vs %d)"
              shards r.Campaign.lookups base.Campaign.lookups r.Campaign.lookups_ok
              base.Campaign.lookups_ok r.Campaign.total_msgs base.Campaign.total_msgs
              r.Campaign.events_executed base.Campaign.events_executed
          else true)
        [ 2; 4 ])

(* One deterministic pin at a fixed seed with audits on: the doctor's
   checkpoint summary (counts and each violation) must also be blind to the
   partitioning, since audits fire only at K-independent sync points. *)
let test_audited_fixed_seed () =
  let p = params ~bootstrap:150 ~arrival:4.0 ~lookups:10.0 in
  let audit = Rofl_doctor.Audit.config_for p.Campaign.proto_cfg in
  let net = Campaign.network ~seed:4242 profile in
  let r1 = Campaign.run ~seed:4242 ~audit ~shards:1 net p in
  let r4 = Campaign.run ~seed:4242 ~audit ~shards:4 net p in
  Alcotest.(check bool) "audited reports identical" true (same_report r1 r4);
  match (r1.Campaign.audit, r4.Campaign.audit) with
  | Some a1, Some a4 ->
    Alcotest.(check int) "same checkpoints" a1.Rofl_doctor.Audit.checkpoints
      a4.Rofl_doctor.Audit.checkpoints;
    Alcotest.(check int) "same violations" a1.Rofl_doctor.Audit.total_violations
      a4.Rofl_doctor.Audit.total_violations
  | _ -> Alcotest.fail "audit summary missing"

(* ---- superseded joins ----------------------------------------------------

   Join state is keyed by identifier, so a stale response to an
   identifier's earlier gateway can meet the join a move has since
   registered at another gateway.  Before the rule "a join completes only
   at its own gateway", that response completed the move's join at the
   wrong router whenever the two gateways shared a shard — always at K = 1,
   sometimes at K = 2 or 4 — and this fixed seed's fingerprints diverged.
   A 30 ms join timeout makes retried joins, and so stale responses,
   common. *)

let moves_profile =
  { Isp.profile_name = "shard-200"; routers = 200; hosts = 1_000; pop_count = 25 }

let test_superseded_join () =
  let p =
    {
      (params ~bootstrap:1_000 ~arrival:8.0 ~lookups:10.0) with
      Campaign.horizon_ms = 3_000.0;
      move_fraction = 0.4;
      crash_fraction = 0.2;
      proto_cfg = { Proto.default_config with Proto.join_timeout_ms = 30.0 };
    }
  in
  let net = Campaign.network ~seed:3 moves_profile in
  let run shards = Campaign.run ~seed:3 ~shards net p in
  let base = run 1 in
  Alcotest.(check bool) "the trace moves identifiers" true (base.Campaign.moves > 0);
  List.iter
    (fun shards ->
      let r = run shards in
      Alcotest.(check string)
        (Printf.sprintf "event fingerprint at shards=%d" shards)
        (Printf.sprintf "%016Lx" (Int64.of_int base.Campaign.event_fingerprint))
        (Printf.sprintf "%016Lx" (Int64.of_int r.Campaign.event_fingerprint));
      Alcotest.(check bool)
        (Printf.sprintf "report at shards=%d" shards)
        true (same_report r base))
    [ 2; 4 ]

(* ---- generated traces straight on Proto ---------------------------------

   The campaigns above draw their workload from one generator; this
   property drives [Proto] with small arbitrary traces instead: joins,
   moves, leaves and crashes of a pool of four identifiers, and lookups of
   those identifiers or of router labels, up to 20 ms apart.  Join and
   lookup timeouts of 5 and 10 ms sit below most round trips on the
   doctor-mini ISP, so joins retry, stale join responses meet joins that a
   move has re-registered elsewhere, and lookups time out.  Every shard
   count must give the same event fingerprint, the same [Proto.stats] and
   the same lookup outcomes; QCheck shrinks a failing trace and prints it. *)

type op =
  | Join of int * int  (** identifier, gateway *)
  | Move of int * int  (** identifier, new gateway *)
  | Leave of int
  | Crash of int
  | Lookup of int * int  (** origin router, target: identifier < 4, else a label *)

let pool = Array.init 4 (fun i -> Id.random (Prng.create (0xC0DE + i)))

let show (t, op) =
  match op with
  | Join (i, g) -> Printf.sprintf "%d:join %d@%d" t i g
  | Move (i, g) -> Printf.sprintf "%d:move %d@%d" t i g
  | Leave i -> Printf.sprintf "%d:leave %d" t i
  | Crash i -> Printf.sprintf "%d:crash %d" t i
  | Lookup (r, x) -> Printf.sprintf "%d:lookup %d->%d" t r x

let mini_graph =
  (Isp.generate (Prng.create 7)
     { Isp.profile_name = "doctor-mini"; routers = 24; hosts = 1_000; pop_count = 3 })
    .Isp.graph

(* The trace's fingerprint, stats and sorted lookup outcomes at [shards]. *)
let replay ~shards trace =
  let cfg =
    { Proto.default_config with Proto.join_timeout_ms = 5.0; lookup_timeout_ms = 10.0 }
  in
  let p = Proto.create ~rng:(Prng.create 11) ~cfg ~shards ~bootstrap_hosts:30 mini_graph in
  let outcomes = ref [] in
  List.iter
    (fun (t, op) ->
      Shard.at_global (Proto.coordinator p) ~time_ms:(float_of_int t) (fun () ->
          match op with
          | Join (i, g) -> Proto.join p ~gateway:g pool.(i)
          | Move (i, g) -> ignore (Proto.move p ~new_gateway:g pool.(i))
          | Leave i -> ignore (Proto.leave p pool.(i))
          | Crash i -> ignore (Proto.crash p pool.(i))
          | Lookup (r, x) ->
            let target = if x < 4 then pool.(x) else Rofl_proto.State.router_label (x - 4) in
            Proto.lookup_async p ~from:r target (fun (o : Proto.lookup_outcome) ->
                outcomes :=
                  (o.completed_ms, o.issued_ms, Id.to_hex o.target, o.ok, o.attempts)
                  :: !outcomes)))
    trace;
  Proto.start_stabilizer p;
  Proto.run_for p 1_000.0;
  Proto.stop_stabilizer p;
  Proto.run_for p 500.0;
  (Shard.fingerprint (Proto.coordinator p), Proto.stats p, List.sort compare !outcomes)

let gen_trace =
  let open QCheck.Gen in
  let id = int_range 0 3 and router = int_range 0 23 in
  let op =
    frequency
      [
        (3, map2 (fun i g -> Join (i, g)) id router);
        (3, map2 (fun i g -> Move (i, g)) id router);
        (1, map (fun i -> Leave i) id);
        (1, map (fun i -> Crash i) id);
        (3, map2 (fun r x -> Lookup (r, x)) router (int_range 0 27));
      ]
  in
  (* Instants as gaps of up to 20 ms, so a move often follows its join. *)
  map
    (fun steps -> snd (List.fold_left_map (fun t (dt, o) -> (t + dt, (t + dt, o))) 0 steps))
    (list_size (int_range 1 24) (pair (int_range 0 20) op))

let arb_trace =
  QCheck.make gen_trace ~shrink:QCheck.Shrink.list
    ~print:(fun tr -> String.concat "; " (List.map show tr))

let prop_k_invisible =
  QCheck.Test.make ~name:"generated traces equal at K = 1..4" ~count:150 arb_trace
    (fun trace ->
      let base = replay ~shards:1 trace in
      List.for_all (fun k -> compare (replay ~shards:k trace) base = 0) [ 2; 3; 4 ])

(* The property is only as strong as its traces: the fixed generator seed
   below must produce join retries, lookup retries and RPC timeouts. *)
let test_traces_exercise_retries () =
  let rand = Random.State.make [| 43 |] in
  let sum f =
    List.fold_left (fun acc _ ->
        let _, st, _ = replay ~shards:1 (QCheck.Gen.generate1 ~rand gen_trace) in
        acc + f st) 0 (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "join retries" true (sum (fun s -> s.Proto.join_retries) > 0);
  Alcotest.(check bool) "lookup retries" true (sum (fun s -> s.Proto.lookup_retries) > 0);
  Alcotest.(check bool) "rpc timeouts" true (sum (fun s -> s.Proto.rpc_timeouts) > 0)

(* ---- campaign goldens ----------------------------------------------------

   The tests above compare a campaign at K shards against itself at K = 1,
   so an engine change that reorders events identically at every K passes
   them.  These pin the async engine's absolute behaviour: the event
   fingerprint and the report counters of four small fixed campaigns,
   recorded once.  A refactor of [Proto] that claims to be
   behaviour-preserving must leave every line unchanged; re-record only for
   an intended behaviour change, by printing [golden_line] of each case. *)

let golden_line (r : Campaign.report) =
  Printf.sprintf
    "fp=%016Lx J/L/M/C=%d/%d/%d/%d jfail=%d lookups=%d ok=%d failovers=%d \
     timeouts=%d wasted=%d cancel=%d rejects=%d/%d msgs=%d events=%d ctrl=%s"
    (Int64.of_int r.Campaign.event_fingerprint)
    r.Campaign.joins r.Campaign.leaves r.Campaign.moves r.Campaign.crashes
    r.Campaign.join_failures r.Campaign.lookups r.Campaign.lookups_ok
    r.Campaign.failovers r.Campaign.rpc_timeouts r.Campaign.wasted_hops
    r.Campaign.cancellations r.Campaign.join_rejects r.Campaign.promo_rejects
    r.Campaign.total_msgs r.Campaign.events_executed
    (String.concat ","
       (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) r.Campaign.ctrl_msgs))

let golden_seed = 2021

let golden_params =
  {
    (params ~bootstrap:150 ~arrival:6.0 ~lookups:20.0) with
    Campaign.horizon_ms = 3_000.0;
    move_fraction = 0.3;
  }

(* Byzantine conduct on a fixed router pattern: a sixth of the routers
   swallow lookups and another sixth misroute them. *)
let run_byzantine p =
  let net = Campaign.network ~seed:golden_seed profile in
  let behaviours =
    Array.init (Rofl_topology.Graph.n net.Campaign.graph) (fun r ->
        match r mod 6 with
        | 1 -> Types.Drop_lookups
        | 4 -> Types.Misroute
        | _ -> Types.Honest)
  in
  Campaign.run ~seed:golden_seed ~behaviours net p

let golden_cases =
  [
    ("churn", fun () -> report ~seed:golden_seed ~shards:1 golden_params);
    ( "alpha2-pcache8",
      fun () ->
        report ~seed:golden_seed ~shards:1
          {
            golden_params with
            Campaign.proto_cfg =
              { Proto.default_config with Proto.lookup_alpha = 2; pcache_capacity = 8 };
          } );
    ("byzantine", fun () -> run_byzantine golden_params);
    ( "poison-verified",
      fun () ->
        let p =
          {
            golden_params with
            Campaign.proto_cfg = { Proto.default_config with Proto.verify_joins = true };
          }
        in
        Campaign.run ~seed:golden_seed
          ~events:
            (Campaign.churn_events ~seed:golden_seed p
            @ [
                Rofl_doctor.Artifact.Fault
                  (Rofl_doctor.Artifact.Poison { at_ms = 300.0; fraction = 0.5 });
              ])
          (Campaign.network ~seed:golden_seed profile)
          p );
  ]

let golden_expected =
  [
    ( "churn",
      "fp=e6d77cb5dfcab07e J/L/M/C=19/2/2/3 jfail=0 lookups=62 ok=62 failovers=3 \
       timeouts=9 wasted=0 cancel=0 rejects=0/0 msgs=116479 events=47033 \
       ctrl=join:342,lookup:830,repair:57,stabilize:115204,verify:46" );
    ( "alpha2-pcache8",
      "fp=0a39e1dca0226101 J/L/M/C=19/2/2/3 jfail=0 lookups=62 ok=62 failovers=3 \
       timeouts=9 wasted=843 cancel=62 rejects=0/0 msgs=118365 events=47612 \
       ctrl=join:342,lookup:1722,refresh:994,repair:57,stabilize:115204,verify:46" );
    ( "byzantine",
      "fp=1d3398457e36b296 J/L/M/C=19/2/2/3 jfail=0 lookups=59 ok=5 failovers=3 \
       timeouts=160 wasted=0 cancel=0 rejects=0/0 msgs=252016 events=102153 \
       ctrl=join:342,lookup:281,repair:57,stabilize:251290,verify:46" );
    ( "poison-verified",
      "fp=244073dc1306ecf7 J/L/M/C=19/2/2/3 jfail=0 lookups=62 ok=62 failovers=5 \
       timeouts=15 wasted=0 cancel=0 rejects=0/10 msgs=252806 events=102015 \
       ctrl=join:342,lookup:830,repair:62,stabilize:251440,verify:132" );
  ]

let test_golden name run () =
  let got = golden_line (run ()) in
  match List.assoc_opt name golden_expected with
  | Some want -> Alcotest.(check string) name want got
  | None -> Alcotest.fail ("no golden recorded for " ^ name)

let () =
  Alcotest.run "rofl_shards"
    [
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest prop_sharding_invisible;
          Alcotest.test_case "audited campaign, fixed seed" `Quick
            test_audited_fixed_seed;
          Alcotest.test_case "superseded join, fixed seed" `Quick test_superseded_join;
          QCheck_alcotest.to_alcotest prop_k_invisible;
          Alcotest.test_case "generated traces retry and time out" `Quick
            test_traces_exercise_retries;
        ] );
      ( "golden",
        List.map
          (fun (name, run) -> Alcotest.test_case name `Quick (test_golden name run))
          golden_cases );
    ]
