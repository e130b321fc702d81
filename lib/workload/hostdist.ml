module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp

let gateway_sampler rng isp =
  (* Weight PoPs by their access-router count; within a PoP, uniform.  A
     degenerate ISP with no access routers uses its cores. *)
  let access = List.concat_map (fun p -> p.Isp.access) (Array.to_list isp.Isp.pops) in
  let routers = Array.of_list (if access = [] then Isp.core_routers isp else access) in
  fun () -> Prng.sample rng routers
