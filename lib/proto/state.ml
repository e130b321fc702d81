module Id = Rofl_idspace.Id
module Prng = Rofl_util.Prng
module Linkstate = Rofl_linkstate.Linkstate
module Engine = Rofl_netsim.Engine
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
open Types

let succ_list_len = 4
let rpc_timeout_ms = 100.0
let rpc_retries = 2
let rpc_backoff = 2.0
let pred_timeout_ms = 600.0
let join_retries = 4
let lookup_retries = 3
let stuck_wait_ms = 5.0
let stuck_wait_limit = 3
let pcache_refresh_ttl_ms = 400.0
let pcache_refresh_budget = 4

(* Deterministic, well-spread default identifier per router: one PRNG draw
   seeded by the router index.  The static engine hashes "router:i" instead
   ([Rofl_intra.Network.router_id]); deriving labels that way here would
   move every router label, and with it every recorded campaign table. *)
let router_label i =
  let g = Prng.create (0x5EED + i) in
  Id.random g

let shd t router = t.sh.(t.shard_of.(router))

(* Simulated time in the calling context: the clock of the engine owning
   [router]'s shard — the event's own time inside a window, the merged
   barrier clock from global context (all engines parked there). *)
let now_at t router = Engine.now (Shard.engine t.coord t.shard_of.(router))

(* A token names its router in the low 16 bits ([Linkstate.create] refuses
   graphs of 0xFFFF routers or more) and counts that router's RPCs above
   them, so no RPC table's keys depend on the shard count. *)
let fresh_token t router =
  let count = t.tokens.(router) in
  t.tokens.(router) <- count + 1;
  (count lsl 16) lor router

(* Schedule [m] for router [at] (the entry's int) on its shard under the
   content-derived key [(time, rail, seq)].  [rail] must be the router in
   whose execution context this call is made (the acting router), so its
   sequence counter is bumped in a deterministic, K-independent order. *)
let[@inline] sched t ~rail ~at ~time_ms m =
  let seq = t.rails.(rail) in
  t.rails.(rail) <- seq + 1;
  Shard.send t.coord ~src:t.shard_of.(rail) ~dst:t.shard_of.(at) ~time_ms ~rail
    ~seq ~arg:at m

let find_slot t router rid =
  let sh = shd t router in
  match Idtbl.find sh.where rid with
  | s when Store.owner sh.store s = router -> s
  | _ -> -1
  | exception Not_found -> -1

let locate_slot t rid =
  let k = Array.length t.sh in
  let rec go i =
    if i >= k then None
    else
      match Idtbl.find_opt t.sh.(i).where rid with
      | Some s -> Some (t.sh.(i), s)
      | None -> go (i + 1)
  in
  go 0

(* Successor lists hold distinct entries in strictly increasing clockwise
   distance from their holder, never the holder, never its successor.
   Inherited lists do not arrive that way (a departing member's backups are
   ordered around its position, and may contain the adopter), so every
   adoption site stages its candidates in the store and funnels through
   [adopt_staged] ({!Store.normalize}), written straight into the slot. *)
let succ_list_limit t =
  if t.cfg.stabilize_auto then t.auto_sl_limit else succ_list_len - 1

(* Diversity quota on the backup tail (the Kademlia IP-group-quota pattern,
   group = PoP): keep at most [succ_quota] *admitted* entries per
   hosting-router group, closest entries first.  Runs before truncation so
   entries rejected for concentration make room for farther, more diverse
   backups.  Two exemptions: the successor itself rides in [succ], outside
   the tail, and is never counted — quotas must not be able to reject the
   one true successor; and infrastructure entries (a router's own label,
   hosted at itself) pass uncounted, because their ring placement is the
   operator's topology, not an admission an attacker can mint — small rings
   legitimately have same-PoP label runs. *)
let infrastructure id router = Id.equal id (router_label router)

let adopt_staged t sh s ~self ~succ =
  Store.normalize sh.store s ~self ~succ ~limit:(succ_list_limit t)
    ~quota:(if t.cfg.quota_enforce then t.cfg.succ_quota else 0)
    ~groups:t.groups ~exempt:infrastructure

let stage_columns store ~skip ids routers =
  for k = 0 to Array.length ids - 1 do
    if not (Id.equal ids.(k) skip) then Store.stage store ids.(k) routers.(k)
  done

(* Deliver a message to a router after traversing the physical path there,
   charging one message per link under [cat].  A cross-shard destination is
   reached over at least one partition-crossing link, so the delivery time
   is at least the conservative window after now — the invariant the shard
   coordinator's barriers rely on. *)
let send_direct t ~cat ~from ~dest msg =
  let sh = shd t from in
  let latency = sh.s_latency in
  latency.(0) <- 0.0;
  let links = Linkstate.price_hop_into sh.s_ls from dest ~latency 0 in
  if links >= 0 then begin
    Metrics.incr sh.s_metrics cat links;
    sched t ~rail:from ~at:dest ~time_ms:(now_at t from +. latency.(0)) msg
  end

let latency_between t a b =
  if a = b then 0.0
  else begin
    let d = Linkstate.distance_to_nan (shd t a).s_ls a b in
    if Float.is_nan d then 0.0 else d
  end

let link_hops_between t a b =
  if a = b then 0
  else begin
    let h = Linkstate.distance_hops_count (shd t a).s_ls a b in
    if h < 0 then 0 else h
  end

