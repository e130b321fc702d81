module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics

type t = { graph : Graph.t; ls : Linkstate.t; metrics : Metrics.t }

let create graph =
  { graph; ls = Linkstate.create graph; metrics = Metrics.create ~routers:(Graph.n graph) }

(* Priced as [Metrics.charge_path] over the path's routers would: one
   message per link and one load unit per router, nothing for a one-router
   path; read from the tree's labels. *)
let route t ~src ~dst =
  let hops = Linkstate.distance_hops_count t.ls src dst in
  if hops > 0 then begin
    Metrics.incr t.metrics Metrics.Ospf_data hops;
    Linkstate.iter_path t.ls src dst Metrics.add_load t.metrics
  end;
  hops

let router_load t = Metrics.router_load t.metrics

let load_fractions t =
  let load = router_load t in
  let total = Array.fold_left ( + ) 0 load in
  if total = 0 then Array.map (fun _ -> 0.0) load
  else Array.map (fun l -> float_of_int l /. float_of_int total) load

let entries_per_router t = Graph.n t.graph
