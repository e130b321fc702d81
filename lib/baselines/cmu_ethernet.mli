(** CMU-ETHERNET baseline (Myers, Ng & Zhang, HotNets 2004).

    The paper's intradomain comparison point (§6.1–6.2): a flat-routing
    design where every router keeps a route for every host and host
    arrival/departure information is disseminated by network-wide flooding.
    The paper reports it needing 37–181× ROFL's join messages and 34–1200×
    its memory.  We reproduce the cost model: one flood over every directed
    link per host join, one host entry in every router's table. *)

type t

val create : Rofl_topology.Graph.t -> t

val join_host : t -> unit
(** Register one host: floods the announcement (charged per directed link).
    Exported for tests: test_baselines prices a join on the flood model. *)

val join_hosts : t -> int -> unit

val leave_host : t -> unit
(** Withdrawal flood, symmetric to a join.
    Exported for tests: test_baselines prices a leave on the flood model. *)

val total_messages : t -> int

val hosts : t -> int
(** Exported for tests: test_baselines counts the flood cost of each join and
    leave. *)

val entries_per_router : t -> int
(** Routing-table entries each router holds: one per host plus one per
    router (the topology's own routes). *)

val route_hops : t -> int -> int -> int option
(** Shortest-path delivery (every router knows every host): same as OSPF.
    Exported for tests: test_baselines checks the shortest-path routes. *)
