(** OSPF shortest-path baseline.

    The load-balance comparison of Fig. 6b and the memory comparison of
    Fig. 6c: traffic between the same gateway pairs routed over link-state
    shortest paths, with per-router traversal counts; and the OSPF
    memory model (a route per router, plus optionally a route per host when
    host routes are injected). *)

type t

val create : Rofl_topology.Graph.t -> t

val route : t -> src:int -> dst:int -> int
(** Charges one message along the link-state shortest path and returns its
    hop count, [-1] (charging nothing) when unreachable; accumulates
    per-router load.  Builds no path. *)

val router_load : t -> int array
(** Traversal counts per router, same accounting as
    {!Rofl_netsim.Metrics.charge_path}. *)

val load_fractions : t -> float array
(** Per-router fraction of all message traversals. *)

val entries_per_router : t -> int
(** Topology routes only (OSPF proper). *)
