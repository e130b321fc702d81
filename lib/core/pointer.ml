module Id = Rofl_idspace.Id

type kind = Successor | Predecessor | Finger | Cached

type t = { dst : Id.t; dst_router : int; route : Sourceroute.t; at : int }

let code = function Successor -> 0 | Predecessor -> 1 | Finger -> 2 | Cached -> 3

let pack kind ~dst_router ~route ~start =
  if Sourceroute.destination route <> dst_router then
    invalid_arg "Pointer.make: route does not end at dst_router";
  if start < 0 || start >= Sourceroute.routers route then
    invalid_arg "Pointer.make: start outside the route";
  (start lsl 2) lor code kind

let make kind ~dst ~dst_router ~route ~start =
  { dst; dst_router; route; at = pack kind ~dst_router ~route ~start }

let kind_of_at at =
  match at land 3 with 0 -> Successor | 1 -> Predecessor | 2 -> Finger | _ -> Cached

let kind p = kind_of_at p.at

let[@inline] start p = p.at lsr 2

let uses_link p u v = Sourceroute.uses_link p.route (start p) u v
