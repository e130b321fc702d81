module Id = Rofl_idspace.Id
module Lru = Rofl_util.Lru
module Metrics = Rofl_netsim.Metrics

(* Bounded LRU response cache at a resolver router.

   Positive entries hold the provider set an owner answered with; negative
   entries ([providers = [||]]) remember that the owner had no record, so
   repeat queries for dead names are absorbed locally (classic negative
   caching).  Freshness is wall-clock simulated time: an entry past
   [fresh_until_ms] is a miss and is dropped on sight — unless the
   [serve_stale] fault knob is on, which deliberately keeps serving decayed
   entries so the doctor's no-expired-answer invariant has something to
   catch.  Hit/miss/negative/eviction counts are charged to the directory's
   shared {!Metrics} registry. *)

(* Freshness windows of a positive and a negative answer; serving past
   fresh + grace is an invariant violation. *)
let cache_ttl_ms = 2_000.0
let neg_ttl_ms = 1_000.0
let stale_grace_ms = 1_000.0

type config = {
  capacity : int;          (* bound on cached services; 0 disables caching *)
  serve_stale : bool;      (* fault injection: keep serving decayed entries *)
}

let default_config = { capacity = 1024; serve_stale = false }

type entry = {
  providers : Id.t array;  (* [||] = negative entry *)
  installed_ms : float;
  fresh_until_ms : float;
}

type t = {
  cfg : config;
  cache : (Id.t, entry) Lru.t;
  metrics : Metrics.t;
  mutable served_expired : int;
}

let create ~metrics cfg =
  {
    cfg;
    cache = Lru.create ~capacity:cfg.capacity;
    metrics;
    served_expired = 0;
  }

let length t = Lru.length t.cache
let served_expired t = t.served_expired

let count_hit t e =
  let c =
    if Array.length e.providers = 0 then Metrics.Svc_cache_neg_hit
    else Metrics.Svc_cache_hit
  in
  Metrics.incr t.metrics c 1

let find t ~now service =
  match Lru.find t.cache service with
  | None ->
    Metrics.incr t.metrics Metrics.Svc_cache_miss 1;
    None
  | Some e ->
    if now < e.fresh_until_ms then begin
      count_hit t e;
      Some e
    end
    else if t.cfg.serve_stale then begin
      (* Fault path: the answer decayed and we serve it anyway.  Within the
         grace window that is merely a stale answer; past it, it is the
         served-expired violation the doctor audits for. *)
      if now >= e.fresh_until_ms +. stale_grace_ms then
        t.served_expired <- t.served_expired + 1;
      count_hit t e;
      Some e
    end
    else begin
      Lru.remove t.cache service;
      Metrics.incr t.metrics Metrics.Svc_cache_miss 1;
      None
    end

let install t ~now service providers =
  let ttl =
    if Array.length providers = 0 then neg_ttl_ms else cache_ttl_ms
  in
  let e = { providers; installed_ms = now; fresh_until_ms = now +. ttl } in
  match Lru.put t.cache service e with
  | Some _ -> Metrics.incr t.metrics Metrics.Svc_cache_evict 1
  | None -> ()

