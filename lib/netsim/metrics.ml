type counter =
  | Join
  | Join_reply
  | Teardown
  | Flood
  | Directed_flood
  | Zero_id
  | Repair
  | Finger
  | Data
  | Ospf_data
  | Lookup
  | Stabilize
  | Verify
  | Refresh
  | Svc_publish_msg
  | Svc_resolve_msg
  | Svc_republish
  | Svc_expired
  | Svc_stale_answer
  | Svc_cache_hit
  | Svc_cache_miss
  | Svc_cache_neg_hit
  | Svc_cache_evict
  | Wasted_hops
  | Cancellations
  | Join_rejects
  | Promo_rejects
  | Joins_done
  | Joins_failed
  | Failovers
  | Rpc_timeouts
  | Join_retries
  | Lookup_retries

(* Declaration order, so the compiler turns this match into the identity. *)
let index = function
  | Join -> 0
  | Join_reply -> 1
  | Teardown -> 2
  | Flood -> 3
  | Directed_flood -> 4
  | Zero_id -> 5
  | Repair -> 6
  | Finger -> 7
  | Data -> 8
  | Ospf_data -> 9
  | Lookup -> 10
  | Stabilize -> 11
  | Verify -> 12
  | Refresh -> 13
  | Svc_publish_msg -> 14
  | Svc_resolve_msg -> 15
  | Svc_republish -> 16
  | Svc_expired -> 17
  | Svc_stale_answer -> 18
  | Svc_cache_hit -> 19
  | Svc_cache_miss -> 20
  | Svc_cache_neg_hit -> 21
  | Svc_cache_evict -> 22
  | Wasted_hops -> 23
  | Cancellations -> 24
  | Join_rejects -> 25
  | Promo_rejects -> 26
  | Joins_done -> 27
  | Joins_failed -> 28
  | Failovers -> 29
  | Rpc_timeouts -> 30
  | Join_retries -> 31
  | Lookup_retries -> 32

let name = function
  | Join -> "join"
  | Join_reply -> "join-reply"
  | Teardown -> "teardown"
  | Flood -> "flood"
  | Directed_flood -> "directed-flood"
  | Zero_id -> "zero-id"
  | Repair -> "repair"
  | Finger -> "finger"
  | Data -> "data"
  | Ospf_data -> "ospf-data"
  | Lookup -> "lookup"
  | Stabilize -> "stabilize"
  | Verify -> "verify"
  | Refresh -> "refresh"
  | Svc_publish_msg -> "svc-publish-msg"
  | Svc_resolve_msg -> "svc-resolve-msg"
  | Svc_republish -> "svc-republish"
  | Svc_expired -> "svc-expired"
  | Svc_stale_answer -> "svc-stale-answer"
  | Svc_cache_hit -> "svc-cache-hit"
  | Svc_cache_miss -> "svc-cache-miss"
  | Svc_cache_neg_hit -> "svc-cache-neg-hit"
  | Svc_cache_evict -> "svc-cache-evict"
  | Wasted_hops -> "wasted-hops"
  | Cancellations -> "cancellations"
  | Join_rejects -> "join-rejects"
  | Promo_rejects -> "promo-rejects"
  | Joins_done -> "joins-done"
  | Joins_failed -> "joins-failed"
  | Failovers -> "failovers"
  | Rpc_timeouts -> "rpc-timeouts"
  | Join_retries -> "join-retries"
  | Lookup_retries -> "lookup-retries"

let messages =
  [ Join; Join_reply; Teardown; Flood; Directed_flood; Zero_id; Repair; Finger; Data;
    Ospf_data; Lookup; Stabilize; Verify; Refresh;
    Svc_publish_msg; Svc_resolve_msg; Svc_republish; Svc_expired; Svc_stale_answer;
    Svc_cache_hit; Svc_cache_miss; Svc_cache_neg_hit; Svc_cache_evict ]

let events =
  [ Wasted_hops; Cancellations; Join_rejects; Promo_rejects; Joins_done; Joins_failed;
    Failovers; Rpc_timeouts; Join_retries; Lookup_retries ]

let n_messages = List.length messages

let n_counters = n_messages + List.length events

let () =
  List.iteri (fun i c -> assert (index c = i)) (messages @ events)

let by_name = List.sort (fun a b -> String.compare (name a) (name b)) messages

type t = {
  counts : int array;
  present : bool array; (* charged since creation or the last reset *)
  load : int array;
}

let create ~routers =
  if routers < 0 then invalid_arg "Metrics.create: negative router count";
  {
    counts = Array.make n_counters 0;
    present = Array.make n_counters false;
    load = Array.make routers 0;
  }

let incr m c k =
  let i = index c in
  m.counts.(i) <- m.counts.(i) + k;
  m.present.(i) <- true

let add_load m router =
  if router >= 0 && router < Array.length m.load then
    m.load.(router) <- m.load.(router) + 1

let charge_hop m c router =
  incr m c 1;
  add_load m router

let charge_path m c = function
  | [] | [ _ ] -> ()
  | path ->
    incr m c (List.length path - 1);
    List.iter (add_load m) path

let inject m c origin =
  m.present.(index c) <- true;
  add_load m origin

let get m c = m.counts.(index c)

let total m =
  let s = ref 0 in
  for i = 0 to n_messages - 1 do
    s := !s + m.counts.(i)
  done;
  !s

let categories m =
  List.filter_map
    (fun c ->
      let i = index c in
      if m.present.(i) then Some (name c, m.counts.(i)) else None)
    by_name

let router_load m = Array.copy m.load

let reset m =
  Array.fill m.counts 0 n_counters 0;
  Array.fill m.present 0 n_counters false;
  Array.fill m.load 0 (Array.length m.load) 0

let merge_into ~dst src =
  if Array.length dst.load <> Array.length src.load then
    invalid_arg "Metrics.merge_into: router table size mismatch";
  for i = 0 to n_counters - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i);
    dst.present.(i) <- dst.present.(i) || src.present.(i)
  done;
  Array.iteri (fun i v -> dst.load.(i) <- dst.load.(i) + v) src.load
