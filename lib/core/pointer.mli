(** Routing pointers: an identifier plus the source route to reach it.

    Routers hold pointers of four kinds (§2.2): ring state proper (successor
    and predecessor pointers maintained on behalf of resident identifiers),
    fingers (proximity-based long-range state), and cached pointers picked up
    from control traffic passing through.  Ring state takes precedence over
    cache contents when memory is scarce. *)

type kind = Successor | Predecessor | Finger | Cached

type t = {
  dst : Rofl_idspace.Id.t;  (** identifier this pointer leads to *)
  dst_router : int;         (** router currently hosting [dst] *)
  route : Sourceroute.t;    (** source route from the holder to [dst_router] *)
  kind : kind;
}

val make :
  kind -> dst:Rofl_idspace.Id.t -> dst_router:int -> route:Sourceroute.t -> t

val placeholder : t
(** A cached pointer to {!Rofl_idspace.Id.zero} at router 0: the fill value
    of preallocated pointer slots and registers, never a real route. *)

val uses_router : t -> int -> bool
(** The pointer's source route traverses the given router. *)

val uses_link : t -> int -> int -> bool

val kind_to_string : kind -> string

val pp : Format.formatter -> t -> unit
