(** Greedy forwarding: the ranker every greedy step shares, the
    diversified starts of α-parallel branches, the per-hop chase that
    carries joins (Alg. 1 routes with Alg. 2) and lookups, and the lookup
    attempts with their timeouts, retries and branch cancellation. *)

open Types

val owner_found : int
val owner_dead : int

val owner_step :
  shard_state ->
  router:int ->
  target:Rofl_idspace.Id.t ->
  best_d:int ->
  best:Rofl_idspace.Id.t ->
  int
(** One hop of the pure-read owner walk: rank at [router] and hop if the
    winner beats the previous hop's [best] (at key distance [best_d], -1 on
    the first hop), else settle on the router's best resident.  Returns the
    next router (its winner in the shard's [ranked]/[ranked_d]),
    {!owner_found} (the verdict in [ranked]) or {!owner_dead}. *)

val branch_starts_into :
  t -> from:int -> target:Rofl_idspace.Id.t -> out:int array -> pos:int -> max_extra:int -> int
(** Start routers for the extra branches of an α-parallel lookup, drawn
    from [from]'s local state: at most [max_extra] into [out.(pos..)];
    returns how many. *)

val forward : t -> at:int -> message -> unit
(** A [Join_req] or [Lookup_req] at router [at]: a lookup meets the
    router's conduct ({!Types.behaviour}) first; then the chase re-ranks,
    commits to the closest candidate seen and takes one link, waits for a
    mid-join candidate, or arrives (a join splices, a lookup answers). *)

val lookup_resp :
  t -> at:int -> token:int -> owner_id:Rofl_idspace.Id.t -> owner_router:int -> hops:int -> unit
(** A branch's answer at its origin: the first exact one wins and cancels
    its siblings; all wrong, the lookup retries a stabilisation period later
    or fails. *)

val start_lookup_attempt : t -> lookup_state -> unit
(** Send one attempt's primary branch and its [lookup_alpha - 1] extra
    branches, with the attempt's timeout (backed off per attempt). *)
