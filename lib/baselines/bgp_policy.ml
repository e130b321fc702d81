module Policy = Rofl_asgraph.Policy
module Prng = Rofl_util.Prng

type t = { p : Policy.t }

let create g = { p = Policy.create g }

let path_stretch t ~src ~dst =
  if src = dst then None
  else
    match (Policy.bgp_distance t.p ~src ~dst, Policy.shortest_distance t.p ~src ~dst) with
    | Some bgp, Some sp when sp > 0 -> Some (float_of_int bgp /. float_of_int sp)
    | _ -> None

let sample_stretches t rng ~ases ~samples =
  let acc = ref [] in
  for _ = 1 to samples do
    let a = Prng.sample rng ases and b = Prng.sample rng ases in
    match path_stretch t ~src:a ~dst:b with
    | Some s -> acc := s :: !acc
    | None -> ()
  done;
  !acc
