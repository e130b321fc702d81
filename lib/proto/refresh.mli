(** The pointer-cache refresh manager: a global sweep, half a stabilisation
    period out of phase with the stabiliser, in which each router
    re-validates up to {!State.pcache_refresh_budget} entries older than
    {!State.pcache_refresh_ttl_ms}, charged as a probe and reply under
    "refresh".  Dead entries are evicted; live ones get a fresh stamp. *)

val start : Types.t -> unit
(** Schedule the recurring sweep, unless the cache is off or a sweep is
    already scheduled; it stops with the stabiliser. *)
