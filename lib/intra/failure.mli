(** Failure handling: host, router and link failures, PoP partitions (§3.2).

    Each entry point mutates the network, charges the recovery traffic to the
    metrics object, and returns the number of messages the event cost (the
    delta of total charged messages). *)

val fail_host : Network.t -> Rofl_idspace.Id.t -> (int, string) result
(** The gateway detects the dead session, floods tear-downs to the ID's
    successors/predecessors and a directed invalidation flood over the
    routers caching it; neighbours repair around the gap.

    Kept for examples/mobility.ml, which reads it. *)

val fail_router :
  Network.t -> int -> pick_gateway:(Rofl_core.Vnode.t -> int option) -> int
(** Take a router down.  Resident host identifiers fail over to the gateway
    chosen by [pick_gateway] (agreed failover list; [None] drops the host);
    remote vnodes holding pointers to or through the dead router tear them
    down and repair; caches purge affected routes.
    Exported for tests: test_intra, test_intra_edge and test_routing fail
    routers. *)

val restore_router : Network.t -> int -> int
(** Bring a router back: its default vnode re-floods and rejoins the ring.
    Exported for tests: test_intra restores a failed router. *)

val fail_link : Network.t -> int -> int -> int
(** Link failure without (necessarily) a partition: the network map reroutes
    pointer source routes; pointer caches invalidate entries crossing the
    link.  Charged as one LSA flood.
    Exported for tests: test_intra repairs the ring after a link failure. *)

val restore_link : Network.t -> int -> int -> int
(** Exported for tests: test_intra restores a failed link. *)

val disconnect_routers : Network.t -> int list -> int
(** Cut every link between the given router set and the rest of the network
    (the Fig. 7 PoP-disconnect event), then let both sides converge: cross
    pointers are torn down, per-component rings repair, zero-ID
    advertisements are charged. *)

val reconnect_routers : Network.t -> int list -> int
(** Restore the cut links and merge the rings: the zero-ID mechanism
    triggers re-joins of the partitioned identifiers (charged to [repair])
    and boundary repairs on the main component. *)

val mobile_rehome :
  Network.t -> Rofl_idspace.Id.t -> new_gateway:int -> (int, string) result
(** Host mobility: the identifier leaves its current gateway and rejoins at
    a new one, keeping the same flat label.  Returns messages charged.

    Kept for examples/mobility.ml, which reads it. *)
