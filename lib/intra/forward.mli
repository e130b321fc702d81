(** Data-plane forwarding (Algorithm 2).

    Packets are routed greedily to the closest known identifier not past the
    destination, shortcut through pointer caches, and — for ephemeral
    destinations — relayed by the destination's ring predecessor, whose
    router holds the attachment source route (§2.2). *)

type delivery = {
  delivered_to : Rofl_core.Vnode.t option; (** [None] when undeliverable *)
  hops : int;          (** physical links traversed *)
  latency_ms : float;
  via_predecessor : bool; (** delivery relayed through an ephemeral attachment *)
}

val route_packet :
  ?use_cache:bool -> Network.t -> from:int -> dest:Rofl_idspace.Id.t -> delivery
(** Route one data packet from a router towards an identifier.  Charged to
    the [data] category.  [use_cache] defaults to [true]. *)

val shortest_hops : Network.t -> int -> int -> int option
(** Minimum-hop distance between two routers over live equipment — the
    stretch denominator (the link-state layer's latency-weighted paths can
    be longer in hops).  {!Rofl_linkstate.Linkstate.min_hops} as an option. *)

val stretch :
  ?use_cache:bool ->
  Network.t -> src_gateway:int -> dst:Rofl_idspace.Id.t -> float option
(** Ratio of the hops a packet actually takes from [src_gateway] to the
    identifier's hosting router over the shortest-path hops.  [None] when
    undeliverable.  A same-router delivery has stretch 1. *)
