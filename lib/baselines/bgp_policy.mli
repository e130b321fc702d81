(** BGP-policy stretch baseline (the "BGP-policy" curve of Fig. 8b).

    The inflation today's policy routing imposes over shortest AS paths,
    measured over the same AS graph ROFL runs on. *)

type t

val create : Rofl_asgraph.Asgraph.t -> t

val sample_stretches :
  t -> Rofl_util.Prng.t -> ases:int array -> samples:int -> float list
(** Stretch over random distinct AS pairs (undefined pairs skipped). *)
