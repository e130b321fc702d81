(* Message-driven protocol engine: asynchronous joins + Chord stabilisation
   must converge to the same ring the synchronous simulation produces. *)

module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Gen = Rofl_topology.Gen
module Isp = Rofl_topology.Isp
module Proto = Rofl_proto.Proto
module Oracle = Rofl_proto.Oracle
module Owner = Rofl_proto.Owner
module State = Rofl_proto.State
module Network = Rofl_intra.Network
module Vnode = Rofl_core.Vnode
module Store = Rofl_proto.Store

let topo seed = Gen.waxman (Prng.create seed) ~n:30 ~alpha:0.4 ~beta:0.2

let test_bootstrap_ring_converged () =
  let t = Proto.create ~rng:(Prng.create 1) (topo 1) in
  Alcotest.(check bool) "initial router ring consistent" true (Proto.ring_converged t);
  Alcotest.(check int) "one member per router" 30 (List.length (Proto.members t))

let test_single_join_no_stabilize () =
  let t = Proto.create ~rng:(Prng.create 2) (topo 2) in
  let id = Id.random (Prng.create 3) in
  Proto.join t ~gateway:5 id;
  Proto.run_for t 1_000.0;
  let s = Proto.stats t in
  Alcotest.(check int) "join completed" 1 s.Proto.joins_completed;
  Alcotest.(check bool) "messages flowed" true (s.Proto.messages > 0);
  Alcotest.(check bool) "ring consistent without stabilisation" true
    (Proto.ring_converged t)

let test_concurrent_joins_converge () =
  let t = Proto.create ~rng:(Prng.create 4) (topo 4) in
  let rng = Prng.create 5 in
  let ids = List.init 100 (fun _ -> Id.random rng) in
  (* All joins fired at once: real races; stabilisation must repair. *)
  List.iter (fun id -> Proto.join t ~gateway:(Prng.int rng 30) id) ids;
  let elapsed = Proto.run_until_quiescent t ~max_ms:120_000.0 in
  Alcotest.(check bool) "finished within budget" true (elapsed < 120_000.0);
  let s = Proto.stats t in
  Alcotest.(check int) "all joins completed" 100 s.Proto.joins_completed;
  Alcotest.(check int) "membership complete" 130 (List.length (Proto.members t));
  Alcotest.(check bool) "ring converged" true (Proto.ring_converged t)

let test_staggered_joins_cheaper () =
  let run stagger_ms =
    let t = Proto.create ~rng:(Prng.create 6) (topo 6) in
    let rng = Prng.create 7 in
    for _ = 1 to 40 do
      Proto.join t ~gateway:(Prng.int rng 30) (Id.random rng);
      if stagger_ms > 0.0 then Proto.run_for t stagger_ms
    done;
    ignore (Proto.run_until_quiescent t ~max_ms:60_000.0);
    (Proto.stats t).Proto.stabilize_rounds
  in
  let sequential = run 200.0 and concurrent = run 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "staggered (%d rounds) <= concurrent (%d rounds)" sequential concurrent)
    true
    (sequential <= concurrent)

let test_lookup_owner_after_convergence () =
  let t = Proto.create ~rng:(Prng.create 8) (topo 8) in
  let rng = Prng.create 9 in
  let ids = List.init 50 (fun _ -> Id.random rng) in
  List.iter (fun id -> Proto.join t ~gateway:(Prng.int rng 30) id) ids;
  ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
  List.iter
    (fun id ->
      match Owner.lookup_owner t ~from:(Prng.int rng 30) id with
      | Some got ->
        Alcotest.(check bool)
          (Printf.sprintf "lookup finds %s" (Id.to_short_string id))
          true (Id.equal got id)
      | None -> Alcotest.fail "lookup returned nothing")
    ids

(* The asynchronous engine and the synchronous simulation, fed identical
   workloads, must agree on the final ring. *)
let test_matches_synchronous_network () =
  let g = topo 10 in
  let rng_ids = Prng.create 11 in
  let workload =
    List.init 60 (fun _ -> (Prng.int rng_ids 30, Id.random rng_ids))
  in
  (* Asynchronous. *)
  let p = Proto.create ~rng:(Prng.create 12) g in
  List.iter (fun (gw, id) -> Proto.join p ~gateway:gw id) workload;
  ignore (Proto.run_until_quiescent p ~max_ms:120_000.0);
  Alcotest.(check bool) "async converged" true (Proto.ring_converged p);
  (* Synchronous. *)
  let net = Network.create ~rng:(Prng.create 13) g in
  List.iter
    (fun (gw, id) ->
      match Network.join_host net ~gateway:gw ~id ~cls:Vnode.Stable with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sync join failed: %s" e)
    workload;
  (* Same host membership, and every host's successor agrees.  (The two
     engines use different router-ID derivations, so only host identifiers
     are compared; each side's successor is projected onto the host-only
     ring.) *)
  let host_ids = List.map snd workload |> List.sort Id.compare in
  let arr = Array.of_list host_ids in
  Array.iteri
    (fun i id ->
      let expect = arr.((i + 1) mod Array.length arr) in
      (* Project: walk each engine's ring successors until the next host id. *)
      let rec project_async cur steps =
        if steps > 300 then None
        else
          match Proto.successor_of p cur with
          | Some s when List.exists (Id.equal s) host_ids -> Some s
          | Some s -> project_async s (steps + 1)
          | None -> None
      in
      (match project_async id 0 with
       | Some s ->
         Alcotest.(check bool)
           (Printf.sprintf "async host-successor of %s" (Id.to_short_string id))
           true (Id.equal s expect)
       | None -> Alcotest.fail "async projection failed");
      match Network.find_vnode net id with
      | None -> Alcotest.fail "sync lost a host"
      | Some _ -> ())
    arr

let test_isp_scale_convergence () =
  let rng = Prng.create 14 in
  let isp = Isp.generate rng Isp.as3967 in
  let t = Proto.create ~rng isp.Isp.graph in
  let gateways = Array.of_list (Isp.edge_routers isp) in
  for _ = 1 to 150 do
    Proto.join t ~gateway:(Prng.sample rng gateways) (Id.random rng)
  done;
  ignore (Proto.run_until_quiescent t ~max_ms:300_000.0);
  Alcotest.(check bool) "converged at ISP scale" true (Proto.ring_converged t);
  Alcotest.(check int) "all joined" 150 (Proto.stats t).Proto.joins_completed

(* ---- dynamics: leaves, crashes, failover and the join-retry race ---- *)

(* The ring predecessor of [id] in the current membership (wrapping). *)
let ring_pred t id =
  let ms = Proto.members t in
  match List.filter (fun m -> Id.compare m id < 0) ms with
  | [] -> List.nth ms (List.length ms - 1)
  | below -> List.nth below (List.length below - 1)

let populated seed ~hosts =
  let t = Proto.create ~rng:(Prng.create seed) (topo seed) in
  let rng = Prng.create (seed + 1) in
  let ids = List.init hosts (fun _ -> Id.random rng) in
  List.iter (fun id -> Proto.join t ~gateway:(Prng.int rng 30) id) ids;
  ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
  (t, ids, rng)

let test_graceful_leave_handoff () =
  let t, ids, _ = populated 20 ~hosts:20 in
  let departing = List.nth ids 7 in
  Alcotest.(check bool) "left" true (Proto.leave t departing);
  ignore (Proto.run_until_quiescent t ~max_ms:60_000.0);
  Alcotest.(check bool) "gone" false (Proto.is_member t departing);
  Alcotest.(check bool) "ring converged after leave" true (Proto.ring_converged t);
  let s = Proto.stats t in
  Alcotest.(check int) "one leave" 1 s.Proto.leaves_completed;
  (* The handoff repoints the neighbours directly: no probe timeout, no
     successor-list promotion needed. *)
  Alcotest.(check int) "no failover" 0 s.Proto.failovers;
  Alcotest.(check bool) "leaving a stranger is refused" false
    (Proto.leave t departing)

let test_crash_failover_from_succ_list () =
  let t, ids, _ = populated 21 ~hosts:20 in
  let victim = List.nth ids 3 in
  Alcotest.(check bool) "crashed" true (Proto.crash t victim);
  (* Nobody was told: detection must come from probe timeouts, repair from
     the successor list. *)
  ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
  Alcotest.(check bool) "gone" false (Proto.is_member t victim);
  Alcotest.(check bool) "ring converged after crash" true (Proto.ring_converged t);
  let s = Proto.stats t in
  Alcotest.(check int) "one crash" 1 s.Proto.crashes;
  Alcotest.(check bool) "probe timeouts observed" true (s.Proto.rpc_timeouts > 0);
  Alcotest.(check bool) "failover promoted a backup" true (s.Proto.failovers > 0);
  (* The stale-successor window around the crash closed. *)
  Alcotest.(check bool) "stale window measured" true (Oracle.stale_windows t <> []);
  Alcotest.(check int) "no stale pointer left" 0 (Oracle.stale_open t)

let test_crash_mid_join_race () =
  let t, ids, rng = populated 22 ~hosts:20 in
  (* Pick a joiner whose splice point is a crashable host (not a router
     anchor), then kill that host while the join request is in flight. *)
  let rec pick () =
    let a = Id.random rng in
    let p = ring_pred t a in
    if List.exists (Id.equal p) ids then (a, p) else pick ()
  in
  let joiner, victim = pick () in
  Proto.join t ~gateway:(Prng.int rng 30) joiner;
  Alcotest.(check bool) "victim crashed mid-join" true (Proto.crash t victim);
  ignore (Proto.run_until_quiescent t ~max_ms:240_000.0);
  Alcotest.(check bool) "joiner made it in" true (Proto.is_member t joiner);
  Alcotest.(check bool) "victim stayed out" false (Proto.is_member t victim);
  Alcotest.(check bool) "ring converged after the race" true (Proto.ring_converged t);
  Alcotest.(check int) "no join abandoned" 0 (Proto.stats t).Proto.joins_failed

let test_concurrent_churn_converges () =
  let t, ids, rng = populated 23 ~hosts:40 in
  (* Simultaneous leaves, crashes, moves and fresh joins: every repair path
     races every other. *)
  let departing = List.filteri (fun i _ -> i < 8) ids in
  let crashing = List.filteri (fun i _ -> i >= 8 && i < 12) ids in
  let moving = List.filteri (fun i _ -> i >= 12 && i < 16) ids in
  let fresh = List.init 8 (fun _ -> Id.random rng) in
  List.iter (fun id -> Alcotest.(check bool) "leave accepted" true (Proto.leave t id)) departing;
  List.iter (fun id -> Alcotest.(check bool) "crash accepted" true (Proto.crash t id)) crashing;
  List.iter
    (fun id ->
      Alcotest.(check bool) "move accepted" true
        (Proto.move t ~new_gateway:(Prng.int rng 30) id))
    moving;
  List.iter (fun id -> Proto.join t ~gateway:(Prng.int rng 30) id) fresh;
  ignore (Proto.run_until_quiescent t ~max_ms:240_000.0);
  Alcotest.(check bool) "ring converged after mixed churn" true (Proto.ring_converged t);
  (* 30 routers + 40 hosts - 8 leaves - 4 crashes + 8 fresh. *)
  Alcotest.(check int) "membership accounts for every event" 66
    (List.length (Proto.members t));
  List.iter
    (fun id ->
      Alcotest.(check bool) "mover still resident" true (Proto.is_member t id))
    moving;
  let s = Proto.stats t in
  Alcotest.(check int) "moves counted" 4 s.Proto.moves_completed

(* Cross-validation with the synchronous engine on a join+leave workload:
   both must end with the same host membership and host-ring successors. *)
let test_matches_synchronous_after_leaves () =
  let g = topo 24 in
  let rng_ids = Prng.create 25 in
  let workload = List.init 40 (fun _ -> (Prng.int rng_ids 30, Id.random rng_ids)) in
  let leavers = List.filteri (fun i _ -> i mod 4 = 0) (List.map snd workload) in
  (* Asynchronous. *)
  let p = Proto.create ~rng:(Prng.create 26) g in
  List.iter (fun (gw, id) -> Proto.join p ~gateway:gw id) workload;
  ignore (Proto.run_until_quiescent p ~max_ms:120_000.0);
  List.iter (fun id -> ignore (Proto.leave p id)) leavers;
  ignore (Proto.run_until_quiescent p ~max_ms:120_000.0);
  Alcotest.(check bool) "async converged" true (Proto.ring_converged p);
  (* Synchronous. *)
  let net = Network.create ~rng:(Prng.create 27) g in
  List.iter
    (fun (gw, id) ->
      match Network.join_host net ~gateway:gw ~id ~cls:Vnode.Stable with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sync join failed: %s" e)
    workload;
  List.iter
    (fun id ->
      match Network.leave_host net id with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sync leave failed: %s" e)
    leavers;
  let survivors =
    List.map snd workload
    |> List.filter (fun id -> not (List.exists (Id.equal id) leavers))
    |> List.sort Id.compare
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) "async kept survivor" true (Proto.is_member p id);
      match Network.find_vnode net id with
      | Some _ -> ()
      | None -> Alcotest.fail "sync lost a survivor")
    survivors;
  List.iter
    (fun id -> Alcotest.(check bool) "async dropped leaver" false (Proto.is_member p id))
    leavers;
  (* Host-ring successors agree (projected over each engine's full ring). *)
  let arr = Array.of_list survivors in
  Array.iteri
    (fun i id ->
      let expect = arr.((i + 1) mod Array.length arr) in
      let rec project cur steps =
        if steps > 300 then None
        else
          match Proto.successor_of p cur with
          | Some s when List.exists (Id.equal s) survivors -> Some s
          | Some s -> project s (steps + 1)
          | None -> None
      in
      match project id 0 with
      | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "host-successor of %s matches" (Id.to_short_string id))
          true (Id.equal s expect)
      | None -> Alcotest.fail "async projection failed")
    arr

(* ---- the successor-list normaliser against the list pipeline ----------

   The reference is the pipeline the protocol ran before [Store.normalize]:
   drop self and the successor, [List.sort_uniq] by clockwise distance from
   the holder, the per-group quota (infrastructure labels exempt), then
   truncation to the limit and to the store's [cap_list]. *)

let truncate_list n xs =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  go n xs

let quota_filter ~quota ~groups entries =
  if quota <= 0 || Array.length groups = 0 then entries
  else begin
    let counts = Hashtbl.create 8 in
    List.filter
      (fun (i, r) ->
        Id.equal i (State.router_label r)
        ||
        let g = groups.(r) in
        let c = match Hashtbl.find_opt counts g with Some c -> c | None -> 0 in
        if c >= quota then false
        else begin
          Hashtbl.replace counts g (c + 1);
          true
        end)
      entries
  end

let reference_normalize ~self ?succ ~limit ~quota ~groups ~cap_list entries =
  entries
  |> List.filter (fun (i, _) ->
         (not (Id.equal i self))
         && match succ with Some s -> not (Id.equal i s) | None -> true)
  |> List.sort_uniq (fun (a, _) (b, _) -> Id.compare_dist self a self b)
  |> quota_filter ~quota ~groups
  |> truncate_list limit
  |> truncate_list cap_list

let commit store s ~self ?succ ~limit ~quota ~groups () =
  Store.normalize store s ~self
    ~succ:(match succ with Some x -> x | None -> self)
    ~limit ~quota ~groups
    ~exempt:(fun i r -> Id.equal i (State.router_label r))

(* Candidates come from a small pool — self, the successor, router labels
   (exempt from quotas when hosted at their own router), random ids — on a
   handful of routers, so duplicates of one identifier on one router and on
   different routers are common, and so are equal entries at every
   position of [List.sort_uniq]'s runs of two and three. *)
let normalizer_matches_pipeline =
  QCheck.Test.make ~name:"normaliser = filter/sort_uniq/quota/truncate" ~count:2000
    QCheck.small_nat (fun seed ->
      let g = Prng.create (0x5011 + seed) in
      let routers = 6 in
      let self = Id.random g and succ_id = Id.random g in
      let pool =
        Array.concat
          [
            [| self; succ_id |];
            Array.init 3 (fun r -> State.router_label r);
            Array.init 4 (fun _ -> Id.random g);
          ]
      in
      let entry () =
        let i = Prng.int g (Array.length pool) in
        (* a router label mostly rides at its own router *)
        let r = if i >= 2 && i < 5 && Prng.int g 3 > 0 then i - 2 else Prng.int g routers in
        (pool.(i), r)
      in
      let cap_list = Prng.int g 7 in
      let limit = Prng.int g (cap_list + 2) in
      let quota = Prng.int g 3 in
      let groups = if Prng.bool g then Array.init routers (fun r -> r mod 3) else [||] in
      let succ = if Prng.int g 4 = 0 then None else Some succ_id in
      let store = Store.create ~routers ~cap_list ~hint:4 ~dummy:Id.zero in
      let s = Store.alloc store ~router:0 self in
      let entries = List.init (Prng.int g 14) (fun _ -> entry ()) in
      let expect = reference_normalize ~self ?succ ~limit ~quota ~groups ~cap_list entries in
      List.iter (fun (i, r) -> Store.stage store i r) entries;
      commit store s ~self ?succ ~limit ~quota ~groups ();
      let first = Store.succ_list store s = expect in
      (* Second adoption: one extra pointer ahead of the slot's own backups,
         the shape of a splice, a closer successor and an untwist. *)
      let extra = entry () in
      let expect' =
        reference_normalize ~self ?succ ~limit ~quota ~groups ~cap_list
          (extra :: Store.succ_list store s)
      in
      Store.stage store (fst extra) (snd extra);
      Store.stage_backups store s;
      commit store s ~self ?succ ~limit ~quota ~groups ();
      first && Store.succ_list store s = expect')

(* ---- the ranker's key prefilter against the 128-bit comparison --------- *)

let key_mask = (1 lsl 62) - 1

let key_dist x ~target = (Id.key target - Id.key x) land key_mask

(* Offsets around the target that put candidates at equal keys, keys one
   apart (a key unit is 2^66), on both sides of a borrow out of the low 66
   bits, through zero, and on the target itself. *)
let adversarial_offsets =
  let key_unit = Id.of_int64_pair 4L 0L in
  let units k = List.fold_left (fun acc _ -> Id.add acc key_unit) Id.zero (List.init k Fun.id) in
  let around x = [ x; Id.succ_id x; Id.pred_id x; Id.add x (Id.of_int64_pair 0L Int64.min_int) ] in
  List.concat_map around
    [ Id.zero; units 1; units 2; units 3; Id.sub Id.zero (units 1); Id.sub Id.zero (units 2);
      Id.of_int64_pair 3L (-1L); Id.of_int64_pair Int64.min_int 0L ]

let test_key_prefilter_adversarial () =
  let g = Prng.create 0x6b3f in
  let targets =
    [ Id.zero; Id.of_int64_pair (-1L) (-1L); Id.of_int64_pair 4L 0L; Id.of_int64_pair 3L (-1L);
      Id.random g; Id.random g; Id.random g ]
  in
  List.iter
    (fun target ->
      let cands =
        List.concat_map
          (fun base -> List.map (fun o -> Id.add base o) adversarial_offsets)
          [ target; Id.random g ]
      in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              let keyed =
                Id.closer_clockwise_keyed ~target (key_dist x ~target) x (key_dist y ~target) y
              in
              if keyed <> Id.closer_clockwise ~target x y then
                Alcotest.failf "prefilter disagrees: target %s x %s y %s" (Id.to_hex target)
                  (Id.to_hex x) (Id.to_hex y))
            cands)
        cands)
    targets

(* On a converged ring every resident's backups are the live members right
   after its successor, clockwise: the successor group a stabilisation
   reply carries, staged and adopted by the asker.  Default config, so the
   quota is off; the same at 1 and 2 shards. *)
let test_succ_group_converged () =
  List.iter
    (fun shards ->
      let t = Proto.create ~rng:(Prng.create 31) ~shards (topo 31) in
      let rng = Prng.create 32 in
      List.iter (fun id -> Proto.join t ~gateway:(Prng.int rng 30) id)
        (List.init 40 (fun _ -> Id.random rng));
      ignore (Proto.run_until_quiescent t ~max_ms:120_000.0);
      (* Successors have converged; a few more periods settle the backups. *)
      Proto.start_stabilizer t;
      Proto.run_for t 1_000.0;
      Proto.stop_stabilizer t;
      Proto.run_for t 1_000.0;
      Alcotest.(check bool) "ring converged" true (Proto.ring_converged t);
      let views = Array.of_list (Proto.residents_view t) in
      let n = Array.length views in
      Alcotest.(check int) "membership" 70 n;
      let hex (id, router) = (Id.to_hex id, router) in
      let entry i = (views.(i mod n).Proto.v_id, views.(i mod n).Proto.v_router) in
      Array.iteri
        (fun i v ->
          let label = Printf.sprintf "%d shard(s), resident %d" shards i in
          Alcotest.(check (option (pair string int))) (label ^ ": successor")
            (Some (hex (entry (i + 1))))
            (Option.map hex v.Proto.v_succ);
          Alcotest.(check (list (pair string int))) (label ^ ": successor group")
            (List.init (State.succ_list_len - 1) (fun k -> hex (entry (i + 2 + k))))
            (List.map hex v.Proto.v_succ_list))
        views)
    [ 1; 2 ]

let () =
  Alcotest.run "rofl_proto"
    [
      ( "proto",
        [
          Alcotest.test_case "bootstrap ring" `Quick test_bootstrap_ring_converged;
          Alcotest.test_case "single join" `Quick test_single_join_no_stabilize;
          Alcotest.test_case "concurrent joins converge" `Quick test_concurrent_joins_converge;
          Alcotest.test_case "staggered cheaper" `Quick test_staggered_joins_cheaper;
          Alcotest.test_case "lookup owner" `Quick test_lookup_owner_after_convergence;
          Alcotest.test_case "matches synchronous engine" `Quick
            test_matches_synchronous_network;
          Alcotest.test_case "ISP scale" `Slow test_isp_scale_convergence;
          Alcotest.test_case "converged successor groups" `Quick test_succ_group_converged;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "graceful leave handoff" `Quick test_graceful_leave_handoff;
          Alcotest.test_case "crash failover" `Quick test_crash_failover_from_succ_list;
          Alcotest.test_case "crash mid-join race" `Quick test_crash_mid_join_race;
          Alcotest.test_case "concurrent mixed churn" `Quick test_concurrent_churn_converges;
          Alcotest.test_case "matches synchronous after leaves" `Quick
            test_matches_synchronous_after_leaves;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest normalizer_matches_pipeline;
          Alcotest.test_case "key prefilter, adversarial ids" `Quick
            test_key_prefilter_adversarial;
        ] );
    ]
