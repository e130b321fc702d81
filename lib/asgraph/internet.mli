(** Synthetic tiered Internet AS graphs.

    Substitute for the Routeviews-sampled AS topology (§6.1; see DESIGN.md):
    a tier-1 clique, transit tiers, and stub ASes, with multihoming and
    peering densities as generator parameters.  The defaults are calibrated
    so that up-hierarchies land in the paper's reported 75–100 AS range on
    the default graph size. *)

type params = {
  n_tier1 : int;        (** size of the tier-1 clique *)
  n_tier2 : int;        (** large transit ASes *)
  n_tier3 : int;        (** regional transit ASes *)
  n_stub : int;         (** edge ASes *)
  multihome_fraction : float; (** fraction of non-tier1 ASes with >= 2 providers *)
  peer_fraction : float;      (** same-tier peering density *)
  backup_fraction : float;    (** fraction of multihomed ASes whose extra link is backup-only *)
}

val default_params : params
(** ~1100 ASes: 10 tier-1, 90 tier-2, 250 tier-3, 750 stubs. *)

val small_params : params
(** ~120 ASes, for tests. *)

type t = {
  graph : Asgraph.t;
  tier_of : int array; (** 1..4, 4 = stub *)
  params : params;
}

val generate : Rofl_util.Prng.t -> params -> t
(** Always produces a valid hierarchy ({!Asgraph.validate} holds) with every
    non-tier-1 AS reaching the tier-1 clique. *)

val stubs : t -> int list
