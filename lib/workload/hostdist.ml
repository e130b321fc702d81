module Prng = Rofl_util.Prng
module Isp = Rofl_topology.Isp

let gateway_sampler rng isp =
  (* Weight PoPs by their access-router count; within a PoP, uniform. *)
  let pops =
    Array.to_list isp.Isp.pops
    |> List.filter (fun p -> p.Isp.access <> [])
    |> Array.of_list
  in
  if Array.length pops = 0 then begin
    (* Degenerate ISP with no access routers: use cores. *)
    let cores = Array.of_list (Isp.core_routers isp) in
    fun () -> Prng.sample rng cores
  end
  else begin
    let weighted =
      Array.to_list pops
      |> List.concat_map (fun p -> List.map (fun r -> r) p.Isp.access)
      |> Array.of_list
    in
    fun () -> Prng.sample rng weighted
  end
