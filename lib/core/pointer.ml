module Id = Rofl_idspace.Id

type kind = Successor | Predecessor | Finger | Cached

type t = { dst : Id.t; dst_router : int; route : Sourceroute.t; kind : kind }

let make kind ~dst ~dst_router ~route =
  if Sourceroute.destination route <> dst_router then
    invalid_arg "Pointer.make: route does not end at dst_router";
  { dst; dst_router; route; kind }

let placeholder =
  { dst = Id.zero; dst_router = 0; route = Sourceroute.singleton 0; kind = Cached }

let route_length p = Sourceroute.length p.route

let uses_router p r = Sourceroute.contains_router p.route r

let uses_link p u v =
  let rec scan = function
    | a :: (b :: _ as rest) -> (a = u && b = v) || (a = v && b = u) || scan rest
    | [ _ ] | [] -> false
  in
  scan (Sourceroute.hops p.route)

let kind_to_string = function
  | Successor -> "succ"
  | Predecessor -> "pred"
  | Finger -> "finger"
  | Cached -> "cached"

let pp ppf p =
  Format.fprintf ppf "%s->%a@r%d (%d hops)" (kind_to_string p.kind) Id.pp p.dst
    p.dst_router (route_length p)
