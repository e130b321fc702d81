(** Routing pointers: an identifier plus the source route to reach it.

    Routers hold pointers of four kinds (§2.2): ring state proper (successor
    and predecessor pointers maintained on behalf of resident identifiers),
    fingers (proximity-based long-range state), and cached pointers picked up
    from control traffic passing through.  Ring state takes precedence over
    cache contents when memory is scarce.

    A pointer's route is a slice of a {!Sourceroute.t} block: the block and
    a start hop.  Ring pointers own a fresh SPF block and start at 0; the
    cached pointers left along one control path share that path's block,
    each starting at its own router. *)

type kind = Successor | Predecessor | Finger | Cached

type t = private {
  dst : Rofl_idspace.Id.t;  (** identifier this pointer leads to *)
  dst_router : int;         (** router currently hosting [dst] *)
  route : Sourceroute.t;
  (** the block holding the source route from the holder to [dst_router],
      from hop {!start} on *)
  at : int;                 (** {!start} and {!kind}, packed in one field *)
}

val make :
  kind -> dst:Rofl_idspace.Id.t -> dst_router:int -> route:Sourceroute.t -> start:int -> t
(** The pointer over the slice of [route] from hop [start].  Checks in O(1)
    that the route ends at [dst_router] and that [start] is a hop of it;
    raises [Invalid_argument] otherwise. *)

val kind : t -> kind

val start : t -> int
(** The hop of {!t.route} at which the pointer's route begins: the holder's
    router. *)

val placeholder : t
(** A cached pointer to {!Rofl_idspace.Id.zero} at router 0: the fill value
    of preallocated pointer slots and registers, never a real route. *)

val uses_router : t -> int -> bool
(** The pointer's source route traverses the given router. *)

val uses_link : t -> int -> int -> bool
