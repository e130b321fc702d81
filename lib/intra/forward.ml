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

(* Breadth-first scratch, one per domain: figures take stretch samples on
   [Pool] domains, so a buffer shared between domains would be raced.
   [dist] is -1 everywhere between calls; [queue] holds the visit order, which
   is also the list of entries to reset. *)
type bfs_scratch = { mutable dist : int array; mutable queue : int array }

let bfs_scratch = Domain.DLS.new_key (fun () -> { dist = [||]; queue = [||] })

(* Label [u]'s unvisited live neighbours with distance [d]; returns the new
   queue tail. *)
let rec relax ls dist queue tail u d = function
  | [] -> tail
  | (v, _) :: rest ->
    if dist.(v) < 0 && Linkstate.link_alive ls u v then begin
      dist.(v) <- d;
      queue.(tail) <- v;
      relax ls dist queue (tail + 1) u d rest
    end
    else relax ls dist queue tail u d rest

(* Breadth-first from the queued nodes until [b] is labelled; returns the
   queue tail, i.e. how many nodes were labelled. *)
let rec visit ls g dist queue b head tail =
  if head >= tail || dist.(b) >= 0 then tail
  else begin
    let u = queue.(head) in
    visit ls g dist queue b (head + 1)
      (relax ls dist queue tail u (dist.(u) + 1) (Rofl_topology.Graph.neighbors g u))
  end

(* Minimum-hop distance over live equipment: the paper's stretch denominator
   is the shortest path, not the latency-weighted one the link-state layer
   prefers. *)
let shortest_hops (t : Network.t) a b =
  let ls = t.Network.ls in
  if not (Linkstate.router_alive ls a && Linkstate.router_alive ls b) then None
  else if a = b then Some 0
  else begin
    let g = t.Network.graph in
    let n = Rofl_topology.Graph.n g in
    (* Checked up front: a failure mid-search would leave the scratch dirty. *)
    if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Forward.shortest_hops: no such router";
    let sc = Domain.DLS.get bfs_scratch in
    if Array.length sc.dist < n then begin
      sc.dist <- Array.make n (-1);
      sc.queue <- Array.make n 0
    end;
    let dist = sc.dist and queue = sc.queue in
    dist.(a) <- 0;
    queue.(0) <- a;
    let tail = visit ls g dist queue b 0 1 in
    let d = dist.(b) in
    for i = 0 to tail - 1 do
      dist.(queue.(i)) <- -1
    done;
    if d < 0 then None else Some d
  end

let stretch ?use_cache (t : Network.t) ~src_gateway ~dst =
  match Network.find_vnode t dst with
  | None -> None
  | Some (target_vn : Vnode.t) ->
    let d = route_packet ?use_cache t ~from:src_gateway ~dest:dst in
    (match d.delivered_to with
     | None -> None
     | Some _ ->
       (match shortest_hops t src_gateway target_vn.Vnode.hosted_at with
        | Some 0 -> Some 1.0
        | Some sp -> Some (float_of_int (max d.hops 1) /. float_of_int sp)
        | None -> None))
