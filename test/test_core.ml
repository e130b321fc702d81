(* ROFL common-layer tests: source routes, pointers, vnodes, pointer
   caches. *)

module Id = Rofl_idspace.Id
module Sourceroute = Rofl_core.Sourceroute
module Pointer = Rofl_core.Pointer
module Vnode = Rofl_core.Vnode
module Pointer_cache = Rofl_core.Pointer_cache
module Gen = Rofl_topology.Gen
module Linkstate = Rofl_linkstate.Linkstate
module Prng = Rofl_util.Prng
module Metrics = Rofl_netsim.Metrics

let rng = Prng.create 55

let id i = Id.of_int i

(* ---------- Sourceroute ---------- *)

(* The list model of a route: its routers in order, encoded in the block
   format (a little-endian uint16 per hop). *)
let route hops =
  let b = Bytes.create (2 * List.length hops) in
  List.iteri (fun i r -> Bytes.set_uint16_le b (2 * i) r) hops;
  Sourceroute.of_block b

let test_sourceroute_basic () =
  let r = route [ 1; 2; 3 ] in
  Alcotest.(check int) "routers" 3 (Sourceroute.routers r);
  Alcotest.(check int) "first hop" 1 (Sourceroute.router r 0);
  Alcotest.(check int) "destination" 3 (Sourceroute.destination r);
  Alcotest.(check int) "destination of a long route" 9
    (Sourceroute.destination (route [ 4; 8; 1; 6; 9 ]));
  Alcotest.(check int) "length" 2 (Sourceroute.length r 0);
  Alcotest.(check int) "suffix length" 1 (Sourceroute.length r 1);
  Alcotest.(check bool) "contains" true (Sourceroute.contains_router r 0 2);
  Alcotest.(check bool) "not contains" false (Sourceroute.contains_router r 0 9);
  Alcotest.(check bool) "suffix skips the origin" false (Sourceroute.contains_router r 1 1)

let test_sourceroute_singleton () =
  let r = Sourceroute.singleton 7 in
  Alcotest.(check int) "origin = dest" 7 (Sourceroute.destination r);
  Alcotest.(check int) "zero hops" 0 (Sourceroute.length r 0);
  Alcotest.(check int) "top router" 0xFFFE
    (Sourceroute.destination (Sourceroute.singleton 0xFFFE));
  Alcotest.check_raises "past the uint16 bound"
    (Invalid_argument "Sourceroute.singleton: router out of range") (fun () ->
      ignore (Sourceroute.singleton 0xFFFF))

let test_sourceroute_empty_rejected () =
  let empty = Sourceroute.of_block Bytes.empty in
  Alcotest.(check int) "no routers" 0 (Sourceroute.routers empty);
  Alcotest.check_raises "no destination" (Invalid_argument "Sourceroute.destination: empty")
    (fun () -> ignore (Sourceroute.destination empty));
  Alcotest.check_raises "odd block" (Invalid_argument "Sourceroute.of_block: odd length")
    (fun () -> ignore (Sourceroute.of_block (Bytes.create 3)))

let test_sourceroute_validity () =
  let ls = Linkstate.create (Gen.line 4 ~latency_ms:1.0) in
  Alcotest.(check bool) "valid" true (Sourceroute.is_valid ls (route [ 0; 1; 2 ]) 0);
  Alcotest.(check bool) "invalid" false (Sourceroute.is_valid ls (route [ 0; 2 ]) 0);
  Alcotest.(check bool) "valid suffix past a gap" true
    (Sourceroute.is_valid ls (route [ 3; 1; 2 ]) 1);
  Alcotest.(check bool) "empty slice" false (Sourceroute.is_valid ls (route [ 0; 1 ]) 2)

let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l)

let rec model_uses_link u v = function
  | a :: (b :: _ as rest) -> (a = u && b = v) || (a = v && b = u) || model_uses_link u v rest
  | [ _ ] | [] -> false

(* Routers are drawn from 0..14 so that membership and link hits are
   common, plus 0xFFFE, the largest index a block holds. *)
let router_arb = QCheck.map (fun r -> if r = 15 then 0xFFFE else r) (QCheck.int_range 0 15)

let prop_slices_match_list_model =
  QCheck.Test.make ~name:"every suffix slice = list model" ~count:500
    QCheck.(pair (list_of_size (Gen.int_range 1 12) router_arb) (pair router_arb router_arb))
    (fun (hops, (u, v)) ->
      let r = route hops in
      let dst = List.nth hops (List.length hops - 1) in
      List.for_all
        (fun start ->
          let suffix = drop start hops in
          let p = Pointer.make Pointer.Cached ~dst:(id 1) ~dst_router:dst ~route:r ~start in
          let rejected =
            u = dst
            ||
            match Pointer.make Pointer.Cached ~dst:(id 1) ~dst_router:u ~route:r ~start with
            | _ -> false
            | exception Invalid_argument _ -> true
          in
          Sourceroute.destination r = dst
          && Sourceroute.length r start = List.length suffix - 1
          && Sourceroute.contains_router r start u = List.mem u suffix
          && Sourceroute.uses_link r start u v = model_uses_link u v suffix
          && Sourceroute.uses_link r start v u = model_uses_link u v suffix
          && Pointer.start p = start
          && Pointer.uses_link p v u = model_uses_link u v suffix
          && rejected)
        (List.init (List.length hops) Fun.id))

(* ---------- Pointer ---------- *)

let test_pointer_make () =
  let p =
    Pointer.make Pointer.Successor ~dst:(id 5) ~dst_router:2 ~route:(route [ 0; 1; 2 ]) ~start:0
  in
  Alcotest.(check int) "route length" 2 (Sourceroute.length p.Pointer.route (Pointer.start p));
  Alcotest.(check bool) "uses router" true
    (Sourceroute.contains_router p.Pointer.route (Pointer.start p) 1);
  Alcotest.(check bool) "uses link" true (Pointer.uses_link p 1 2);
  Alcotest.(check bool) "uses link reversed" true (Pointer.uses_link p 2 1);
  Alcotest.(check bool) "no such link" false (Pointer.uses_link p 0 2)

let test_pointer_route_mismatch () =
  Alcotest.check_raises "route/dst mismatch"
    (Invalid_argument "Pointer.make: route does not end at dst_router") (fun () ->
      ignore
        (Pointer.make Pointer.Cached ~dst:(id 5) ~dst_router:9 ~route:(route [ 0; 1 ]) ~start:0));
  Alcotest.check_raises "start past the route"
    (Invalid_argument "Pointer.make: start outside the route") (fun () ->
      ignore
        (Pointer.make Pointer.Cached ~dst:(id 5) ~dst_router:1 ~route:(route [ 0; 1 ]) ~start:2))

(* The kind and the start hop share one packed field. *)
let test_pointer_kinds () =
  List.iter
    (fun k ->
      let q = Pointer.make k ~dst:(id 5) ~dst_router:2 ~route:(route [ 0; 1; 2 ]) ~start:1 in
      Alcotest.(check bool) "kind kept" true (Pointer.kind q = k);
      Alcotest.(check int) "start kept" 1 (Pointer.start q))
    [ Pointer.Successor; Pointer.Predecessor; Pointer.Finger; Pointer.Cached ]

(* ---------- Vnode ---------- *)

let ptr kind i router =
  Pointer.make kind ~dst:(id i) ~dst_router:router ~route:(Sourceroute.singleton router)
    ~start:0

let test_vnode_succ_ordering () =
  let vn = Vnode.create (id 10) Vnode.Stable ~hosted_at:0 in
  Vnode.add_succ vn (ptr Pointer.Successor 30 1) ~max_group:4;
  Vnode.add_succ vn (ptr Pointer.Successor 20 2) ~max_group:4;
  Vnode.add_succ vn (ptr Pointer.Successor 40 3) ~max_group:4;
  (match Vnode.first_succ vn with
   | Some p -> Alcotest.(check bool) "nearest clockwise first" true (Id.equal p.Pointer.dst (id 20))
   | None -> Alcotest.fail "no successor");
  Alcotest.(check int) "three entries" 3 (Vnode.succ_count vn)

let test_vnode_succ_wraparound_order () =
  (* From id 200, successor 5 (wrapped) is farther than 250. *)
  let vn = Vnode.create (id 200) Vnode.Stable ~hosted_at:0 in
  Vnode.add_succ vn (ptr Pointer.Successor 5 1) ~max_group:4;
  Vnode.add_succ vn (ptr Pointer.Successor 250 2) ~max_group:4;
  (match Vnode.first_succ vn with
   | Some p -> Alcotest.(check bool) "250 first" true (Id.equal p.Pointer.dst (id 250))
   | None -> Alcotest.fail "no successor")

let test_vnode_group_trim_dedup () =
  let vn = Vnode.create (id 0) Vnode.Stable ~hosted_at:0 in
  for i = 1 to 6 do
    Vnode.add_succ vn (ptr Pointer.Successor i i) ~max_group:3
  done;
  Alcotest.(check int) "trimmed to 3" 3 (Vnode.succ_count vn);
  Vnode.add_succ vn (ptr Pointer.Successor 1 9) ~max_group:3;
  Alcotest.(check int) "dedup by id" 3 (Vnode.succ_count vn)

let test_vnode_pred_ordering () =
  let vn = Vnode.create (id 100) Vnode.Stable ~hosted_at:0 in
  Vnode.add_pred vn (ptr Pointer.Predecessor 50 1) ~max_group:4;
  Vnode.add_pred vn (ptr Pointer.Predecessor 90 2) ~max_group:4;
  (match Vnode.first_pred vn with
   | Some p -> Alcotest.(check bool) "nearest ccw first" true (Id.equal p.Pointer.dst (id 90))
   | None -> Alcotest.fail "no predecessor")

let test_vnode_remove_drop () =
  let vn = Vnode.create (id 0) Vnode.Stable ~hosted_at:0 in
  Vnode.add_succ vn (ptr Pointer.Successor 1 1) ~max_group:4;
  Vnode.add_succ vn (ptr Pointer.Successor 2 2) ~max_group:4;
  let dropped = Vnode.drop_pointers_if vn (fun _ p -> p.Pointer.dst_router = 1) in
  Alcotest.(check int) "removed" 1 (Vnode.succ_count vn);
  Alcotest.(check int) "removed count" 1 dropped;
  let dropped = Vnode.drop_pointers_if vn (fun _ p -> p.Pointer.dst_router = 2) in
  Alcotest.(check int) "dropped count" 1 dropped;
  Alcotest.(check int) "empty" 0 (Vnode.state_entries vn)

let test_vnode_classes () =
  Alcotest.(check bool) "default is default" true
    (Vnode.is_default (Vnode.create (id 1) Vnode.Router_default ~hosted_at:0));
  Alcotest.(check bool) "stable not default" false
    (Vnode.is_default (Vnode.create (id 1) Vnode.Stable ~hosted_at:0));
  Alcotest.(check string) "class name" "ephemeral" (Vnode.host_class_to_string Vnode.Ephemeral)

(* ---------- Pointer_cache ---------- *)

let cptr i router = ptr Pointer.Cached i router

(* The cache entry [p] would be. *)
let cache_insert c (p : Pointer.t) =
  Pointer_cache.insert c (Pointer.kind p) ~dst:p.Pointer.dst ~dst_router:p.Pointer.dst_router
    ~route:p.Pointer.route ~start:(Pointer.start p)

(* [Pointer_cache.best_match]'s identifier, its miss as [None]. *)
let best_match c ~cur ~target =
  let s = Pointer_cache.best_match c ~cur ~target in
  if s = Pointer_cache.none then None else Some (Pointer_cache.dst c s)

let test_cache_insert_find () =
  let c = Pointer_cache.create ~capacity:4 in
  cache_insert c (cptr 10 1);
  cache_insert c (cptr 20 2);
  Alcotest.(check bool) "find" true (Pointer_cache.find c (id 10) <> Pointer_cache.none);
  Alcotest.(check int) "length" 2 (Pointer_cache.length c)

let test_cache_best_match () =
  let c = Pointer_cache.create ~capacity:8 in
  List.iter (fun i -> cache_insert c (cptr i i)) [ 10; 20; 30; 40 ];
  (* Closest not past 35 is 30. *)
  (match best_match c ~cur:(id 5) ~target:(id 35) with
   | Some d -> Alcotest.(check bool) "closest not past" true (Id.equal d (id 30))
   | None -> Alcotest.fail "expected match");
  (* Exact hit wins. *)
  (match best_match c ~cur:(id 5) ~target:(id 20) with
   | Some d -> Alcotest.(check bool) "exact" true (Id.equal d (id 20))
   | None -> Alcotest.fail "expected exact match");
  (* Nothing in (cur, target]: no match. *)
  (match best_match c ~cur:(id 41) ~target:(id 45) with
   | None -> ()
   | Some _ -> Alcotest.fail "nothing in interval")

let test_cache_best_match_wraparound () =
  let c = Pointer_cache.create ~capacity:4 in
  cache_insert c (cptr 250 1);
  (* Target 5 with cur 200: 250 is in (200, 5] across the wrap. *)
  (match best_match c ~cur:(id 200) ~target:(id 5) with
   | Some d -> Alcotest.(check bool) "wraps" true (Id.equal d (id 250))
   | None -> Alcotest.fail "expected wrap match")

let test_cache_eviction_syncs_index () =
  let c = Pointer_cache.create ~capacity:2 in
  cache_insert c (cptr 10 1);
  cache_insert c (cptr 20 2);
  cache_insert c (cptr 30 3) (* evicts 10 *);
  Alcotest.(check int) "capacity respected" 2 (Pointer_cache.length c);
  (match best_match c ~cur:(id 5) ~target:(id 15) with
   | None -> ()
   | Some _ -> Alcotest.fail "evicted entry still matched")

let test_cache_drop_if () =
  let c = Pointer_cache.create ~capacity:8 in
  List.iter (fun i -> cache_insert c (cptr i i)) [ 1; 2; 3; 4 ];
  let dropped = Pointer_cache.drop_if c (fun c s -> Pointer_cache.dst_router c s mod 2 = 0) in
  Alcotest.(check int) "two dropped" 2 dropped;
  Alcotest.(check int) "two left" 2 (Pointer_cache.length c)

let test_cache_zero_capacity () =
  let c = Pointer_cache.create ~capacity:0 in
  cache_insert c (cptr 1 1);
  Alcotest.(check int) "stores nothing" 0 (Pointer_cache.length c);
  Alcotest.(check bool) "no match" true
    (best_match c ~cur:(id 0) ~target:(id 5) = None);
  List.iter (fun i -> cache_insert c (cptr i i)) [ 1; 2; 3; 2 ];
  Alcotest.(check int) "still nothing" 0 (Pointer_cache.length c);
  Alcotest.(check bool) "no exact hit" true (Pointer_cache.find c (id 2) = Pointer_cache.none);
  Pointer_cache.iter c (fun _ -> Alcotest.fail "iterated an empty cache");
  Alcotest.(check (list string)) "audit clean" [] (Pointer_cache.audit c)

let test_cache_negative_capacity () =
  match Pointer_cache.create ~capacity:(-1) with
  | _ -> Alcotest.fail "create accepted a negative capacity"
  | exception Invalid_argument _ -> ()

let prop_cache_best_match_correct =
  QCheck.Test.make ~name:"best_match = brute force over cache contents" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_range 0 255)) (int_range 0 255))
    (fun (entries, target_i) ->
      let entries = List.sort_uniq compare entries in
      let c = Pointer_cache.create ~capacity:64 in
      List.iter (fun i -> cache_insert c (cptr i i)) entries;
      let target = id target_i in
      let expected =
        List.fold_left
          (fun acc i ->
            let cand = id i in
            match acc with
            | Some best
              when Id.compare (Id.distance best target) (Id.distance cand target) <= 0 ->
              acc
            | _ -> Some cand)
          None entries
      in
      let got = best_match c ~cur:target ~target in
      match (expected, got) with
      | Some e, Some g -> Id.equal e g
      | None, None -> true
      | _ -> false)

(* ---------- Wire ---------- *)

module Wire = Rofl_core.Wire

let wire_rng = Prng.create 77

let roundtrip m =
  match Wire.decode (Wire.encode m) with
  | Ok m' -> Alcotest.(check bool) "roundtrip equal" true (m = m')
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_wire_roundtrips () =
  roundtrip (Wire.Join_request { joining = Id.random wire_rng; origin_router = 7; as_path = [ 1; 2; 3 ] });
  roundtrip (Wire.Join_request { joining = Id.random wire_rng; origin_router = 0; as_path = [] });
  roundtrip
    (Wire.Join_reply
       {
         joining = Id.random wire_rng;
         successors = [ Id.random wire_rng; Id.random wire_rng ];
         predecessors = [ Id.random wire_rng ];
         fingers = [ (Id.random wire_rng, 9); (Id.random wire_rng, 100) ];
       });
  roundtrip (Wire.Teardown { dead = Id.random wire_rng; origin_router = 65535 });
  roundtrip (Wire.Zero_id_advert { zero = Id.random wire_rng; via = [ 0; 1 ] });
  roundtrip (Wire.Data { dst = Id.random wire_rng; src = Id.random wire_rng; payload_len = 100 })

let test_wire_size_accounting () =
  List.iter
    (fun m -> Alcotest.(check int) "size = encoded length" (String.length (Wire.encode m)) (Wire.size_bytes m))
    [
      Wire.Teardown { dead = Id.random wire_rng; origin_router = 1 };
      Wire.Join_request { joining = Id.random wire_rng; origin_router = 2; as_path = [ 4; 5 ] };
      Wire.finger_join_reply ~fingers:64 wire_rng;
      Wire.Data { dst = Id.random wire_rng; src = Id.random wire_rng; payload_len = 512 };
    ]

let test_wire_finger_join_sizes () =
  (* The paper's arithmetic: finger count drives join message size (§6.3). *)
  let small = Wire.size_bytes (Wire.finger_join_reply ~fingers:0 wire_rng) in
  let big = Wire.size_bytes (Wire.finger_join_reply ~fingers:256 wire_rng) in
  Alcotest.(check int) "linear in fingers" (small + (256 * 18)) big;
  Alcotest.(check bool) "256-finger reply fragments" true
    (Wire.ip_packets (Wire.finger_join_reply ~fingers:256 wire_rng) > 1)

let test_wire_decode_garbage () =
  (match Wire.decode "" with Error _ -> () | Ok _ -> Alcotest.fail "empty accepted");
  (match Wire.decode "\xff" with Error _ -> () | Ok _ -> Alcotest.fail "bad tag accepted");
  let m = Wire.Teardown { dead = Id.random wire_rng; origin_router = 5 } in
  let enc = Wire.encode m in
  (match Wire.decode (String.sub enc 0 (String.length enc - 1)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated accepted");
  match Wire.decode (enc ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

let prop_wire_decode_never_crashes =
  QCheck.Test.make ~name:"decode never raises on arbitrary bytes" ~count:500
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      match Wire.decode s with
      | Ok (Wire.Data _ as m) ->
        (* Payload content is not preserved, only its length. *)
        String.length (Wire.encode m) = String.length s
      | Ok m -> Wire.encode m = s (* other accepted bytes re-encode identically *)
      | Error _ -> true)

let prop_wire_join_request_roundtrip =
  QCheck.Test.make ~name:"join-request wire roundtrip" ~count:200
    QCheck.(pair (int_range 0 65535) (small_list (int_range 0 65535)))
    (fun (origin_router, as_path) ->
      let local = Prng.create (origin_router + 1) in
      let m = Wire.Join_request { joining = Id.random local; origin_router; as_path } in
      Wire.decode (Wire.encode m) = Ok m)

(* Report names are frozen: tables, benchmark rows and tests look
   categories up by these exact strings. *)
let test_msg_categories_distinct () =
  let frozen =
    Metrics.
      [ (Join, "join"); (Join_reply, "join-reply"); (Teardown, "teardown");
        (Flood, "flood"); (Directed_flood, "directed-flood"); (Zero_id, "zero-id");
        (Repair, "repair"); (Finger, "finger"); (Data, "data");
        (Ospf_data, "ospf-data"); (Lookup, "lookup"); (Stabilize, "stabilize");
        (Verify, "verify"); (Refresh, "refresh");
        (Svc_publish_msg, "svc-publish-msg"); (Svc_resolve_msg, "svc-resolve-msg");
        (Svc_republish, "svc-republish"); (Svc_expired, "svc-expired");
        (Svc_stale_answer, "svc-stale-answer"); (Svc_cache_hit, "svc-cache-hit");
        (Svc_cache_miss, "svc-cache-miss"); (Svc_cache_neg_hit, "svc-cache-neg-hit");
        (Svc_cache_evict, "svc-cache-evict") ]
  in
  Alcotest.(check bool) "every message category frozen" true
    (List.map fst frozen = Metrics.messages);
  List.iter
    (fun (c, s) -> Alcotest.(check string) "frozen name" s (Metrics.name c))
    frozen;
  let names = List.map Metrics.name (Metrics.messages @ Metrics.events) in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let () =
  ignore rng;
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rofl_core"
    [
      ( "sourceroute",
        [
          Alcotest.test_case "basic" `Quick test_sourceroute_basic;
          Alcotest.test_case "singleton" `Quick test_sourceroute_singleton;
          Alcotest.test_case "empty rejected" `Quick test_sourceroute_empty_rejected;
          Alcotest.test_case "validity" `Quick test_sourceroute_validity;
          q prop_slices_match_list_model;
        ] );
      ( "pointer",
        [
          Alcotest.test_case "make" `Quick test_pointer_make;
          Alcotest.test_case "route mismatch" `Quick test_pointer_route_mismatch;
          Alcotest.test_case "kinds" `Quick test_pointer_kinds;
        ] );
      ( "vnode",
        [
          Alcotest.test_case "succ ordering" `Quick test_vnode_succ_ordering;
          Alcotest.test_case "wraparound order" `Quick test_vnode_succ_wraparound_order;
          Alcotest.test_case "trim and dedup" `Quick test_vnode_group_trim_dedup;
          Alcotest.test_case "pred ordering" `Quick test_vnode_pred_ordering;
          Alcotest.test_case "remove/drop" `Quick test_vnode_remove_drop;
          Alcotest.test_case "classes" `Quick test_vnode_classes;
        ] );
      ( "pointer_cache",
        [
          Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
          Alcotest.test_case "best match" `Quick test_cache_best_match;
          Alcotest.test_case "best match wraparound" `Quick test_cache_best_match_wraparound;
          Alcotest.test_case "eviction syncs index" `Quick test_cache_eviction_syncs_index;
          Alcotest.test_case "drop_if" `Quick test_cache_drop_if;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "negative capacity" `Quick test_cache_negative_capacity;
          q prop_cache_best_match_correct;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrips" `Quick test_wire_roundtrips;
          Alcotest.test_case "size accounting" `Quick test_wire_size_accounting;
          Alcotest.test_case "finger join sizes" `Quick test_wire_finger_join_sizes;
          Alcotest.test_case "decode garbage" `Quick test_wire_decode_garbage;
          q prop_wire_join_request_roundtrip;
          q prop_wire_decode_never_crashes;
        ] );
      ("msg", [ Alcotest.test_case "categories distinct" `Quick test_msg_categories_distinct ]);
    ]
