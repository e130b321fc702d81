module Id = Rofl_idspace.Id

type kind = Successor | Predecessor | Finger | Cached

type t = { dst : Id.t; dst_router : int; route : Sourceroute.t; at : int }

let code = function Successor -> 0 | Predecessor -> 1 | Finger -> 2 | Cached -> 3

let make kind ~dst ~dst_router ~route ~start =
  if Sourceroute.destination route <> dst_router then
    invalid_arg "Pointer.make: route does not end at dst_router";
  if start < 0 || start >= Sourceroute.routers route then
    invalid_arg "Pointer.make: start outside the route";
  { dst; dst_router; route; at = (start lsl 2) lor code kind }

let kind p =
  match p.at land 3 with 0 -> Successor | 1 -> Predecessor | 2 -> Finger | _ -> Cached

let[@inline] start p = p.at lsr 2

let placeholder =
  make Cached ~dst:Id.zero ~dst_router:0 ~route:(Sourceroute.singleton 0) ~start:0

let uses_router p r = Sourceroute.contains_router p.route (start p) r

let uses_link p u v = Sourceroute.uses_link p.route (start p) u v
