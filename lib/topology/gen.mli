(** Generic random-graph generators.

    Used by the test suite and the examples where a full ISP profile would be
    overkill: Waxman random geometric graphs, rings and lines.  All
    generators return connected graphs. *)

val ring : int -> latency_ms:float -> Graph.t
(** A cycle of [n >= 3] routers.
    Exported for tests: the tests build small cycle graphs with it. *)

val line : int -> latency_ms:float -> Graph.t
(** A path of [n >= 2] routers.
    Exported for tests: the tests build small path graphs with it. *)

val waxman :
  Rofl_util.Prng.t -> n:int -> alpha:float -> beta:float -> Graph.t
(** Waxman (1988) random geometric graph on the unit square; the link
    probability between routers at distance [d] is
    [alpha * exp (-d / (beta * sqrt 2))].  A spanning-tree repair pass
    guarantees connectivity.  Latency is proportional to distance. *)
