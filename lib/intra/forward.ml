module Id = Rofl_idspace.Id
module Vnode = Rofl_core.Vnode
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics

type delivery = {
  delivered_to : Vnode.t option;
  hops : int;
  latency_ms : float;
  via_predecessor : bool;
}

let route_packet ?(use_cache = true) (t : Network.t) ~from ~dest =
  let res = Network.lookup t ~from ~target:dest ~category:Metrics.Data ~use_cache in
  match res.Network.status with
  | Network.Delivered vn ->
    { delivered_to = Some vn; hops = res.Network.msgs; latency_ms = res.Network.latency_ms; via_predecessor = false }
  | Network.Predecessor pred ->
    (* The ring predecessor may hold an ephemeral attachment for [dest]. *)
    let pred_router = t.Network.routers.(pred.Vnode.hosted_at) in
    (match Hashtbl.find_opt pred_router.Network.attachments dest with
     | Some host_router ->
       let lat = [| 0.0 |] in
       let extra =
         Network.charge_spf_into t.Network.ls t.Network.metrics Metrics.Data
           pred.Vnode.hosted_at host_router ~latency:lat 0
       in
       if extra >= 0 then
         {
           delivered_to = Network.find_vnode t dest;
           hops = res.Network.msgs + extra;
           latency_ms = res.Network.latency_ms +. lat.(0);
           via_predecessor = true;
         }
       else
         { delivered_to = None; hops = res.Network.msgs; latency_ms = res.Network.latency_ms; via_predecessor = false }
     | None ->
       { delivered_to = None; hops = res.Network.msgs; latency_ms = res.Network.latency_ms; via_predecessor = false })
  | Network.Stuck _ ->
    { delivered_to = None; hops = res.Network.msgs; latency_ms = res.Network.latency_ms; via_predecessor = false }

(* Minimum-hop distance over live equipment: the paper's stretch denominator
   is the shortest path, not the latency-weighted one the link-state layer
   prefers. *)
let shortest_hops (t : Network.t) a b =
  let h = Linkstate.min_hops t.Network.ls a b in
  if h < 0 then None else Some h

let stretch ?use_cache (t : Network.t) ~src_gateway ~dst =
  match Network.find_vnode t dst with
  | None -> None
  | Some (target_vn : Vnode.t) ->
    let d = route_packet ?use_cache t ~from:src_gateway ~dest:dst in
    (match d.delivered_to with
     | None -> None
     | Some _ ->
       let sp = Linkstate.min_hops t.Network.ls src_gateway target_vn.Vnode.hosted_at in
       if sp < 0 then None
       else if sp = 0 then Some 1.0
       else Some (float_of_int (max d.hops 1) /. float_of_int sp))
