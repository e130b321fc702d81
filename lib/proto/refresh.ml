module Graph = Rofl_topology.Graph
module Shard = Rofl_netsim.Shard
module Metrics = Rofl_netsim.Metrics
open Types
open State

(* Membership is read directly: every shard is parked at a global event,
   so the read is safe and K-independent. *)
let round t =
  let now = Shard.now t.coord in
  for router = 0 to Graph.n t.graph - 1 do
    let c = t.pcaches.(router) in
    let sh = shd t router in
    let budget = ref pcache_refresh_budget in
    let i = ref 0 in
    while !i < c.Pcache.len && !budget > 0 do
      if now -. c.Pcache.stamp.(!i) > pcache_refresh_ttl_ms then begin
        decr budget;
        let id = c.Pcache.ids.(!i) and r = c.Pcache.routers.(!i) in
        let links = 2 * link_hops_between t router r in
        Metrics.incr sh.s_metrics Metrics.Refresh links;
        if find_slot t r id >= 0 then begin
          c.Pcache.stamp.(!i) <- now;
          incr i
        end
        else Pcache.remove_at c !i
      end
      else incr i
    done
  done

(* The sweep rides on the stabiliser: it recurs while [stab_on] holds. *)
let start t =
  if Array.length t.pcaches > 0 && not t.refresh_on then begin
    t.refresh_on <- true;
    let rec rtick () =
      if t.stab_on then begin
        round t;
        Shard.at_global t.coord
          ~time_ms:(Shard.now t.coord +. t.cfg.stabilize_period_ms)
          rtick
      end
      else t.refresh_on <- false
    in
    Shard.at_global t.coord
      ~time_ms:(Shard.now t.coord +. (1.5 *. t.cfg.stabilize_period_ms))
      rtick
  end
