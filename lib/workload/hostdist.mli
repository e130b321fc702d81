(** Host placement within an ISP.

    The heavy-tailed hosts-per-AS model that substitutes for the
    skitter/Routeviews estimation of §6.1 (see DESIGN.md) draws with
    {!Rofl_util.Prng.zipf} where the experiments place stub hosts. *)

val gateway_sampler :
  Rofl_util.Prng.t -> Rofl_topology.Isp.t -> unit -> int
(** Draw gateway (edge) routers of an ISP with PoP-weighted popularity:
    bigger PoPs attach more hosts, as Rocketfuel PoP sizes suggest. *)
