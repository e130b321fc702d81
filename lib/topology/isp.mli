(** PoP-structured ISP topologies calibrated to the paper's Rocketfuel ISPs.

    The paper simulates four measured ISP topologies (AS 1221, 1239, 3257,
    3967).  Rocketfuel data is not redistributable, so we generate topologies
    with the same router counts and the canonical Rocketfuel shape: a set of
    PoPs (points of presence), each with a small clique of core routers and a
    fringe of access routers; PoPs joined by a connected backbone with
    shortcut links; short intra-PoP latencies and longer inter-PoP ones
    (see DESIGN.md, substitutions table). *)

type pop = {
  pop_id : int;
  core : int list;   (** backbone-facing routers of this PoP *)
  access : int list; (** aggregation/access routers of this PoP *)
}

type t = {
  name : string;
  graph : Graph.t;
  pops : pop array;
  pop_of_router : int array; (** PoP id per router *)
  hosts_estimate : int;      (** calibrated host population of the real AS *)
}

type profile = {
  profile_name : string;
  routers : int;
  hosts : int;      (** estimated hosts in the real AS (paper §6.1) *)
  pop_count : int;
}

val as1221 : profile
(** Telstra: 318 routers, 2.6 M hosts.

    Kept as a reference: test_topology checks the profile against the
    paper's router count. *)

val as1239 : profile
(** Sprint: 604 routers, 10 M hosts.

    Kept for the repository benchmark: perfbench/main.ml reads it. *)

val as3257 : profile
(** Tiscali: 240 routers, 0.5 M hosts. *)

val as3967 : profile
(** Exodus: 201 routers, 2.1 M hosts. *)

val all_profiles : profile list
(** The four ISPs of §6.1, in paper order. *)

val generate : Rofl_util.Prng.t -> profile -> t
(** Generate a connected PoP-structured topology for a profile.  The result
    is always connected (a repair pass links any stray component to the
    backbone). *)

val routers_of_pop : t -> int -> int list
(** All routers (core + access) of a PoP. *)

val core_routers : t -> int list
(** Core routers across all PoPs. *)

val edge_routers : t -> int list
(** Access routers across all PoPs — the candidate gateway routers. *)
