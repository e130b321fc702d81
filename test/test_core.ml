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

let test_sourceroute_basic () =
  let r = Sourceroute.of_hops [ 1; 2; 3 ] in
  Alcotest.(check int) "origin" 1 (Sourceroute.origin r);
  Alcotest.(check int) "destination" 3 (Sourceroute.destination r);
  Alcotest.(check int) "destination of a long route" 9
    (Sourceroute.destination (Sourceroute.of_hops [ 4; 8; 1; 6; 9 ]));
  Alcotest.(check int) "length" 2 (Sourceroute.length r);
  Alcotest.(check bool) "contains" true (Sourceroute.contains_router r 2);
  Alcotest.(check bool) "not contains" false (Sourceroute.contains_router r 9)

let test_sourceroute_singleton () =
  let r = Sourceroute.singleton 7 in
  Alcotest.(check int) "origin = dest" 7 (Sourceroute.destination r);
  Alcotest.(check int) "zero hops" 0 (Sourceroute.length r)

let test_sourceroute_concat () =
  let a = Sourceroute.of_hops [ 1; 2 ] and b = Sourceroute.of_hops [ 2; 3 ] in
  let c = Sourceroute.concat a b in
  Alcotest.(check (list int)) "joined" [ 1; 2; 3 ] (Sourceroute.hops c);
  Alcotest.check_raises "mismatch" (Invalid_argument "Sourceroute.concat: routes do not meet")
    (fun () -> ignore (Sourceroute.concat a a))

let test_sourceroute_reverse () =
  let r = Sourceroute.of_hops [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "reversed" [ 3; 2; 1 ] (Sourceroute.hops (Sourceroute.reverse r))

let test_sourceroute_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Sourceroute.of_hops: empty route")
    (fun () -> ignore (Sourceroute.of_hops []))

let test_sourceroute_validity () =
  let ls = Linkstate.create (Gen.line 4 ~latency_ms:1.0) in
  Alcotest.(check bool) "valid" true (Sourceroute.is_valid ls (Sourceroute.of_hops [ 0; 1; 2 ]));
  Alcotest.(check bool) "invalid" false (Sourceroute.is_valid ls (Sourceroute.of_hops [ 0; 2 ]))

(* ---------- Pointer ---------- *)

let test_pointer_make () =
  let p =
    Pointer.make Pointer.Successor ~dst:(id 5) ~dst_router:2
      ~route:(Sourceroute.of_hops [ 0; 1; 2 ])
  in
  Alcotest.(check int) "route length" 2 (Pointer.route_length p);
  Alcotest.(check bool) "ring state" true (Pointer.is_ring_state p);
  Alcotest.(check bool) "uses router" true (Pointer.uses_router p 1);
  Alcotest.(check bool) "uses link" true (Pointer.uses_link p 1 2);
  Alcotest.(check bool) "uses link reversed" true (Pointer.uses_link p 2 1);
  Alcotest.(check bool) "no such link" false (Pointer.uses_link p 0 2)

let test_pointer_route_mismatch () =
  Alcotest.check_raises "route/dst mismatch"
    (Invalid_argument "Pointer.make: route does not end at dst_router") (fun () ->
      ignore
        (Pointer.make Pointer.Cached ~dst:(id 5) ~dst_router:9
           ~route:(Sourceroute.of_hops [ 0; 1 ])))

let test_pointer_kinds () =
  Alcotest.(check bool) "cached not ring" false
    (Pointer.is_ring_state
       (Pointer.make Pointer.Cached ~dst:(id 1) ~dst_router:0
          ~route:(Sourceroute.singleton 0)));
  Alcotest.(check string) "kind name" "finger" (Pointer.kind_to_string Pointer.Finger)

(* ---------- Vnode ---------- *)

let ptr kind i router =
  Pointer.make kind ~dst:(id i) ~dst_router:router ~route:(Sourceroute.singleton router)

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
  Vnode.remove_succ vn (id 1);
  Alcotest.(check int) "removed" 1 (Vnode.succ_count vn);
  let dropped = Vnode.drop_pointers_if vn (fun p -> p.Pointer.dst_router = 2) in
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

(* [Pointer_cache.best_match] with its placeholder miss as [None]. *)
let best_match c ~cur ~target =
  let p = Pointer_cache.best_match c ~cur ~target in
  if p == Pointer.placeholder then None else Some p

let test_cache_insert_find () =
  let c = Pointer_cache.create ~capacity:4 in
  Pointer_cache.insert c (cptr 10 1);
  Pointer_cache.insert c (cptr 20 2);
  Alcotest.(check bool) "find" true (Pointer_cache.find c (id 10) <> None);
  Alcotest.(check int) "length" 2 (Pointer_cache.length c)

let test_cache_best_match () =
  let c = Pointer_cache.create ~capacity:8 in
  List.iter (fun i -> Pointer_cache.insert c (cptr i i)) [ 10; 20; 30; 40 ];
  (* Closest not past 35 is 30. *)
  (match best_match c ~cur:(id 5) ~target:(id 35) with
   | Some p -> Alcotest.(check bool) "closest not past" true (Id.equal p.Pointer.dst (id 30))
   | None -> Alcotest.fail "expected match");
  (* Exact hit wins. *)
  (match best_match c ~cur:(id 5) ~target:(id 20) with
   | Some p -> Alcotest.(check bool) "exact" true (Id.equal p.Pointer.dst (id 20))
   | None -> Alcotest.fail "expected exact match");
  (* Nothing in (cur, target]: no match. *)
  (match best_match c ~cur:(id 41) ~target:(id 45) with
   | None -> ()
   | Some _ -> Alcotest.fail "nothing in interval")

let test_cache_best_match_wraparound () =
  let c = Pointer_cache.create ~capacity:4 in
  Pointer_cache.insert c (cptr 250 1);
  (* Target 5 with cur 200: 250 is in (200, 5] across the wrap. *)
  (match best_match c ~cur:(id 200) ~target:(id 5) with
   | Some p -> Alcotest.(check bool) "wraps" true (Id.equal p.Pointer.dst (id 250))
   | None -> Alcotest.fail "expected wrap match")

let test_cache_eviction_syncs_index () =
  let c = Pointer_cache.create ~capacity:2 in
  Pointer_cache.insert c (cptr 10 1);
  Pointer_cache.insert c (cptr 20 2);
  Pointer_cache.insert c (cptr 30 3) (* evicts 10 *);
  Alcotest.(check int) "capacity respected" 2 (Pointer_cache.length c);
  (match best_match c ~cur:(id 5) ~target:(id 15) with
   | None -> ()
   | Some _ -> Alcotest.fail "evicted entry still matched")

let test_cache_drop_if () =
  let c = Pointer_cache.create ~capacity:8 in
  List.iter (fun i -> Pointer_cache.insert c (cptr i i)) [ 1; 2; 3; 4 ];
  let dropped = Pointer_cache.drop_if c (fun p -> p.Pointer.dst_router mod 2 = 0) in
  Alcotest.(check int) "two dropped" 2 dropped;
  Alcotest.(check int) "two left" 2 (Pointer_cache.length c)

let test_cache_resize () =
  let c = Pointer_cache.create ~capacity:8 in
  List.iter (fun i -> Pointer_cache.insert c (cptr i i)) [ 1; 2; 3; 4; 5; 6 ];
  Pointer_cache.resize c ~capacity:2;
  Alcotest.(check int) "shrunk" 2 (Pointer_cache.length c);
  (* The index must agree with the survivors. *)
  let live = ref 0 in
  Pointer_cache.iter c (fun _ -> incr live);
  Alcotest.(check int) "index consistent" 2 !live

let test_cache_zero_capacity () =
  let c = Pointer_cache.create ~capacity:0 in
  Pointer_cache.insert c (cptr 1 1);
  Alcotest.(check int) "stores nothing" 0 (Pointer_cache.length c);
  Alcotest.(check bool) "no match" true
    (best_match c ~cur:(id 0) ~target:(id 5) = None);
  List.iter (fun i -> Pointer_cache.insert c (cptr i i)) [ 1; 2; 3; 2 ];
  Alcotest.(check int) "still nothing" 0 (Pointer_cache.length c);
  Alcotest.(check bool) "no exact hit" true (Pointer_cache.find c (id 2) = None);
  Pointer_cache.iter c (fun _ -> Alcotest.fail "iterated an empty cache");
  (* Shrinking a filled cache to 0 closes it the same way. *)
  let c = Pointer_cache.create ~capacity:4 in
  List.iter (fun i -> Pointer_cache.insert c (cptr i i)) [ 1; 2; 3 ];
  Pointer_cache.resize c ~capacity:0;
  Pointer_cache.insert c (cptr 4 4);
  Alcotest.(check int) "closed by resize" 0 (Pointer_cache.length c);
  Alcotest.(check (list string)) "audit clean" [] (Pointer_cache.audit c)

let test_cache_negative_capacity () =
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: accepted a negative capacity" name
    | exception Invalid_argument _ -> ()
  in
  raises "create" (fun () -> ignore (Pointer_cache.create ~capacity:(-1)));
  let c = Pointer_cache.create ~capacity:2 in
  Pointer_cache.insert c (cptr 1 1);
  raises "resize" (fun () -> Pointer_cache.resize c ~capacity:(-1));
  Alcotest.(check int) "contents kept" 1 (Pointer_cache.length c);
  Alcotest.(check int) "capacity kept" 2 (Pointer_cache.capacity c)

let prop_cache_best_match_correct =
  QCheck.Test.make ~name:"best_match = brute force over cache contents" ~count:300
    QCheck.(pair (list_of_size (Gen.int_range 1 12) (int_range 0 255)) (int_range 0 255))
    (fun (entries, target_i) ->
      let entries = List.sort_uniq compare entries in
      let c = Pointer_cache.create ~capacity:64 in
      List.iter (fun i -> Pointer_cache.insert c (cptr i i)) entries;
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
      let got =
        best_match c ~cur:target ~target |> Option.map (fun p -> p.Pointer.dst)
      in
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
          Alcotest.test_case "concat" `Quick test_sourceroute_concat;
          Alcotest.test_case "reverse" `Quick test_sourceroute_reverse;
          Alcotest.test_case "empty rejected" `Quick test_sourceroute_empty_rejected;
          Alcotest.test_case "validity" `Quick test_sourceroute_validity;
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
          Alcotest.test_case "resize" `Quick test_cache_resize;
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
