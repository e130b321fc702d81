module Id = Rofl_idspace.Id
module Metrics = Rofl_netsim.Metrics
module Proto = Rofl_proto.Proto
module Owner = Rofl_proto.Owner
module State = Rofl_proto.State

(* The service-discovery directory over one actor network.

   Three layers of state:

   - *Intents* — the authoritative publication set: (service, provider,
     origin router) rows an origin keeps republishing while active.  Flat
     columns with a per-service chain off a load-hint-sized Hashtbl; this
     is also the instrumentation oracle the campaign's stale-answer SLO
     compares served answers against.

   - *Placed records* — the {!Provider_store}: the copy of each intent that
     currently lives at the ring owner of its service identifier, plus any
     decaying copies at previous owners.  Placement is resolved through the
     α=1 owner walk ({!Owner.walk_owner}), never through an oracle: a
     publish goes where the walk says the owner is.

   - *Resolver caches* — one bounded LRU {!Resolver} per querying router,
     created lazily.

   All mutation happens from campaign global events (every shard parked),
   so one directory serves any [--shards]/[--jobs] setting without
   per-shard buckets; determinism follows from intents being processed in
   index order and batches in query order.

   Timing discipline: [ttl_ms > republish_period_ms] (2.5x) so a
   steadily-republished record never expires; after an ownership change the
   next republish re-places the record at the new owner and the old copy
   decays by TTL — the residency the doctor audits, and the staleness the
   campaign measures. *)

let ttl_ms = 10_000.0 (* record TTL granted by each publish *)
let republish_period_ms = 4_000.0 (* origin republish cadence *)

type config = {
  alpha : int;                   (* parallel branches per resolve miss *)
  cache : Resolver.config;
}

let default_config = { alpha = 1; cache = Resolver.default_config }

type t = {
  proto : Proto.t;
  cfg : config;
  routers : int;
  metrics : Metrics.t;
  store : Provider_store.t;
  place : Owner.owner_walk;          (* publish walks, alpha = 1 *)
  miss : Owner.owner_walk;           (* resolve-miss walks, cfg.alpha *)
  mutable miss_wasted : int;         (* losing-branch ring hops, cumulative *)
  mutable miss_cancelled : int;      (* cancelled branches, cumulative *)
  resolvers : Resolver.t option array;
  (* intents: struct-of-arrays, never compacted (inactive rows stay) *)
  mutable icap : int;
  mutable icount : int;
  mutable i_service : Id.t array;
  mutable i_provider : Id.t array;
  mutable i_origin : int array;
  mutable i_active : bool array;
  mutable i_last_ms : float array;   (* last successful publish; -inf = never *)
  mutable i_offset_ms : float array; (* stagger phase within the period *)
  mutable i_slot : int array;        (* current placement slot, -1 *)
  mutable i_gen : int array;         (* store gen validating i_slot *)
  mutable i_snext : int array;       (* per-service intent chain *)
  ihead : (Id.t, int) Hashtbl.t;
  (* resolve registers, reused across batches *)
  mutable rcap : int;
  mutable r_hit : bool array;
  mutable r_pos : bool array;
  mutable r_ok : bool array;
  mutable r_stale : bool array;
  mutable r_lat : float array;
  mutable pbuf : Id.t array;         (* provider read scratch *)
}

let create ~proto ~routers ~hint cfg =
  let icap = max 16 hint in
  {
    proto;
    cfg;
    routers;
    metrics = Metrics.create ~routers;
    store = Provider_store.create ~routers ~hint ();
    place = Owner.owner_walk ~alpha:1;
    miss = Owner.owner_walk ~alpha:cfg.alpha;
    miss_wasted = 0;
    miss_cancelled = 0;
    resolvers = Array.make routers None;
    icap;
    icount = 0;
    i_service = Array.make icap Id.zero;
    i_provider = Array.make icap Id.zero;
    i_origin = Array.make icap (-1);
    i_active = Array.make icap false;
    i_last_ms = Array.make icap neg_infinity;
    i_offset_ms = Array.make icap 0.0;
    i_slot = Array.make icap (-1);
    i_gen = Array.make icap 0;
    i_snext = Array.make icap (-1);
    ihead = Hashtbl.create (max 16 (2 * hint));
    rcap = 0;
    r_hit = [||];
    r_pos = [||];
    r_ok = [||];
    r_stale = [||];
    r_lat = [||];
    pbuf = Array.make 8 Id.zero;
  }

let proto t = t.proto
let metrics t = t.metrics
let store t = t.store

let resolver_for t router =
  match t.resolvers.(router) with
  | Some r -> r
  | None ->
    let r = Resolver.create ~metrics:t.metrics t.cfg.cache in
    t.resolvers.(router) <- Some r;
    r

let iter_resolvers t f =
  Array.iter (function Some r -> f r | None -> ()) t.resolvers

let served_expired_total t =
  let n = ref 0 in
  iter_resolvers t (fun r -> n := !n + Resolver.served_expired r);
  !n

(* ---- intents -------------------------------------------------------------- *)

let grow_intents t =
  let old = t.icap in
  let cap = 2 * old in
  let extend_id a = Array.append a (Array.make old Id.zero) in
  let extend_int fill a = Array.append a (Array.make old fill) in
  t.i_service <- extend_id t.i_service;
  t.i_provider <- extend_id t.i_provider;
  t.i_origin <- extend_int (-1) t.i_origin;
  t.i_active <- Array.append t.i_active (Array.make old false);
  t.i_last_ms <- Array.append t.i_last_ms (Array.make old neg_infinity);
  t.i_offset_ms <- Array.append t.i_offset_ms (Array.make old 0.0);
  t.i_slot <- extend_int (-1) t.i_slot;
  t.i_gen <- extend_int 0 t.i_gen;
  t.i_snext <- extend_int (-1) t.i_snext;
  t.icap <- cap

let find_intent t ~service ~provider =
  let rec walk k =
    if k < 0 then -1
    else if Id.equal t.i_provider.(k) provider then k
    else walk t.i_snext.(k)
  in
  match Hashtbl.find_opt t.ihead service with None -> -1 | Some h -> walk h

(* The stagger phase is keyed by the intent's content, not its registration
   order: shrinking a campaign trace must not rephase every other intent. *)
let stagger_of ~service ~provider =
  let h = Hashtbl.hash (Id.hash service, Id.hash provider, 0x0c4a7) in
  republish_period_ms *. float_of_int (h land 0xffff) /. 65536.0

let register t ~service ~provider ~origin =
  let k = find_intent t ~service ~provider in
  if k >= 0 then begin
    t.i_origin.(k) <- origin;
    if not t.i_active.(k) then begin
      t.i_active.(k) <- true;
      (* re-activation republishes promptly, like a fresh registration *)
      t.i_last_ms.(k) <- neg_infinity
    end;
    k
  end
  else begin
    if t.icount >= t.icap then grow_intents t;
    let k = t.icount in
    t.icount <- k + 1;
    t.i_service.(k) <- service;
    t.i_provider.(k) <- provider;
    t.i_origin.(k) <- origin;
    t.i_active.(k) <- true;
    t.i_last_ms.(k) <- neg_infinity;
    t.i_offset_ms.(k) <- stagger_of ~service ~provider;
    t.i_slot.(k) <- -1;
    t.i_gen.(k) <- 0;
    let h = match Hashtbl.find_opt t.ihead service with Some h -> h | None -> -1 in
    t.i_snext.(k) <- h;
    Hashtbl.replace t.ihead service k;
    k
  end

let unregister t ~service ~provider =
  let k = find_intent t ~service ~provider in
  if k < 0 || not t.i_active.(k) then false
  else begin
    (* The placed copies are NOT withdrawn: they decay by TTL, which is the
       staleness window the campaign measures against the oracle. *)
    t.i_active.(k) <- false;
    true
  end

let intent_count t = t.icount
let intent_active t k = t.i_active.(k)
let intent_service t k = t.i_service.(k)
let intent_provider t k = t.i_provider.(k)

let intent_placement t k =
  let s = t.i_slot.(k) in
  if s >= 0 && Provider_store.gen t.store s = t.i_gen.(k)
     && Provider_store.owner t.store s >= 0
  then s
  else -1

let intents_active t =
  let n = ref 0 in
  for k = 0 to t.icount - 1 do
    if t.i_active.(k) then incr n
  done;
  !n

let provider_active t ~service ~provider =
  let k = find_intent t ~service ~provider in
  k >= 0 && t.i_active.(k)

let true_provider_count t ~service =
  let rec walk k n =
    if k < 0 then n else walk t.i_snext.(k) (if t.i_active.(k) then n + 1 else n)
  in
  match Hashtbl.find_opt t.ihead service with None -> 0 | Some h -> walk h 0

(* ---- periodic work (call from campaign global events) --------------------- *)

(* Publish every intent the predicate selects: one owner walk from
   each origin toward its service identifier, then the record placed at the
   router the walk's verdict landed on.  The publish message is charged
   one-way (origin -> owner) in link traversals priced by the walk. *)
let publish_matching t ~now pred =
  let w = t.place in
  let walked = ref 0 in
  for k = 0 to t.icount - 1 do
    if t.i_active.(k) && pred k then begin
      incr walked;
      Owner.walk_owner t.proto w ~from:t.i_origin.(k) ~target:t.i_service.(k);
      if w.w_winner >= 0 then begin
        let owner = w.w_router.(w.w_winner) in
        let slot =
          match
            Provider_store.publish t.store ~service:t.i_service.(k)
              ~provider:t.i_provider.(k) ~owner ~now
              ~ttl_ms
          with
          | `Placed s | `Refreshed s -> s
        in
        t.i_slot.(k) <- slot;
        t.i_gen.(k) <- Provider_store.gen t.store slot;
        t.i_last_ms.(k) <-
          (if t.i_last_ms.(k) = neg_infinity then now -. t.i_offset_ms.(k)
           else now);
        Metrics.incr t.metrics Metrics.Svc_publish_msg w.w_link_hops.(w.w_winner);
        Metrics.incr t.metrics Metrics.Svc_republish 1
      end
      (* an unresolved walk (empty ring) leaves the intent due: retried on
         the next round *)
    end
  done;
  !walked

let republish_due t ~now =
  publish_matching t ~now (fun k -> now -. t.i_last_ms.(k) >= republish_period_ms)

let republish_all t ~now = publish_matching t ~now (fun _ -> true)

let sweep t ~now =
  let dropped = Provider_store.sweep t.store ~now in
  Metrics.incr t.metrics Metrics.Svc_expired dropped;
  dropped

(* ---- batched resolution --------------------------------------------------- *)

let ensure_registers t n =
  if t.rcap < n then begin
    let cap = max n (2 * max 1 t.rcap) in
    t.r_hit <- Array.make cap false;
    t.r_pos <- Array.make cap false;
    t.r_ok <- Array.make cap false;
    t.r_stale <- Array.make cap false;
    t.r_lat <- Array.make cap 0.0;
    t.rcap <- cap
  end

let ensure_pbuf t n =
  if Array.length t.pbuf < n then t.pbuf <- Array.make (max n (2 * Array.length t.pbuf)) Id.zero

(* Answer quality against the oracle (the active intent set):
   - [ok]: the answer has the right sign — providers were returned iff the
     service currently has an active provider.
   - [stale]: the answer contains decayed data — a served provider that is
     no longer active, a negative answer for a live service, or providers
     for a dead one.  (An answer merely *missing* a newly-registered
     provider is not counted: it is incomplete, not wrong.) *)
let judge t ~service ~(served : Id.t array) =
  let truth = true_provider_count t ~service in
  let nserved = Array.length served in
  if nserved = 0 then
    if truth = 0 then (true, false) else (false, true)
  else begin
    let dead = ref false in
    for i = 0 to nserved - 1 do
      if not (provider_active t ~service ~provider:served.(i)) then dead := true
    done;
    if truth = 0 then (false, true) else (true, !dead)
  end

(* Misses ride the α-branch owner walk: the charged branch prices latency,
   and losing-branch hops are billed to [svc-resolve-msg] too — redundancy
   is real traffic (at α=1 there are no losing branches).  Two phases:
   every query is looked up in its resolver cache before any answer is
   installed, so a later miss of the batch cannot hit an answer an earlier
   one just installed. *)
let resolve_batch t ~now ~n ~(from : int array) ~(services : Id.t array) =
  if Array.length from < n || Array.length services < n then
    invalid_arg "Directory.resolve_batch: input arrays shorter than batch";
  ensure_registers t n;
  for i = 0 to n - 1 do
    let rv = resolver_for t from.(i) in
    match Resolver.find rv ~now services.(i) with
    | Some e ->
      t.r_hit.(i) <- true;
      t.r_pos.(i) <- Array.length e.Resolver.providers > 0;
      t.r_lat.(i) <- 0.0;
      let ok, stale = judge t ~service:services.(i) ~served:e.Resolver.providers in
      t.r_ok.(i) <- ok;
      t.r_stale.(i) <- stale;
      if stale then Metrics.incr t.metrics Metrics.Svc_stale_answer 1
    | None -> t.r_hit.(i) <- false
  done;
  let w = t.miss in
  for i = 0 to n - 1 do
    if not t.r_hit.(i) then begin
      let service = services.(i) in
      Owner.walk_owner t.proto w ~from:from.(i) ~target:service;
      t.miss_wasted <- t.miss_wasted + w.w_wasted_hops;
      t.miss_cancelled <- t.miss_cancelled + w.w_cancelled;
      let charged = Owner.charged w in
      let link_hops = w.w_link_hops.(charged) + w.w_wasted_link_hops in
      if w.w_winner >= 0 then begin
        let owner = w.w_router.(w.w_winner) in
        ensure_pbuf t (Provider_store.service_records t.store service);
        let cnt =
          Provider_store.providers_at_into t.store ~service ~at:owner ~now t.pbuf
        in
        let answer = Array.sub t.pbuf 0 cnt in
        Resolver.install (resolver_for t from.(i)) ~now service answer;
        t.r_pos.(i) <- cnt > 0;
        t.r_lat.(i) <-
          w.w_latency_ms.(charged) +. State.latency_between t.proto owner from.(i);
        Metrics.incr t.metrics Metrics.Svc_resolve_msg
          (link_hops + State.link_hops_between t.proto owner from.(i));
        let ok, stale = judge t ~service ~served:answer in
        t.r_ok.(i) <- ok;
        t.r_stale.(i) <- stale;
        if stale then Metrics.incr t.metrics Metrics.Svc_stale_answer 1
      end
      else begin
        (* walk found no owner (empty ring): the query burned its one-way
           cost and nothing was learned *)
        t.r_pos.(i) <- false;
        t.r_ok.(i) <- false;
        t.r_stale.(i) <- false;
        t.r_lat.(i) <- w.w_latency_ms.(charged);
        Metrics.incr t.metrics Metrics.Svc_resolve_msg link_hops
      end
    end
  done

let resolve_wasted_hops t = t.miss_wasted

let resolve_cancellations t = t.miss_cancelled

let res_hit t i = t.r_hit.(i)
let res_positive t i = t.r_pos.(i)
let res_ok t i = t.r_ok.(i)
let res_stale t i = t.r_stale.(i)
let res_latency_ms t i = t.r_lat.(i)
