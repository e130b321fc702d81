module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
module Metrics = Rofl_netsim.Metrics

type t = { graph : Graph.t; ls : Linkstate.t; metrics : Metrics.t }

let create graph =
  { graph; ls = Linkstate.create graph; metrics = Metrics.create ~routers:(Graph.n graph) }

let route t ~src ~dst =
  match Linkstate.path t.ls src dst with
  | Some hops ->
    Metrics.charge_path t.metrics Metrics.Ospf_data hops;
    Some hops
  | None -> None

let route_many t pairs =
  List.fold_left
    (fun acc (src, dst) -> match route t ~src ~dst with Some _ -> acc + 1 | None -> acc)
    0 pairs

let router_load t = Metrics.router_load t.metrics

let load_fractions t =
  let load = router_load t in
  let total = Array.fold_left ( + ) 0 load in
  if total = 0 then Array.map (fun _ -> 0.0) load
  else Array.map (fun l -> float_of_int l /. float_of_int total) load

let entries_per_router t = Graph.n t.graph

let entries_per_router_with_host_routes t ~hosts = Graph.n t.graph + hosts

let reset_load t = Metrics.reset t.metrics
