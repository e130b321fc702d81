(** Bounded LRU response cache at a resolver router, with negative entries.

    A resolver absorbs repeat queries locally: positive entries hold the
    provider set the ring owner answered with, negative entries remember
    that the owner had no record (negative caching, so flash crowds on dead
    names do not hammer the owner).  Entries decay by simulated time; a
    decayed entry is a miss and is dropped on sight unless the
    [serve_stale] fault knob deliberately keeps serving it — the
    fault-injection path for the doctor's "no expired record served past
    its stale-grace window" invariant.

    Hits, misses, negative hits and evictions are charged to the
    directory's shared {!Rofl_netsim.Metrics} registry. *)

type config = {
  capacity : int;          (** bound on cached services; 0 disables caching *)
  cache_ttl_ms : float;    (** freshness window of a positive answer *)
  neg_ttl_ms : float;      (** freshness window of a negative answer *)
  stale_grace_ms : float;  (** serving past fresh+grace violates the audit *)
  serve_stale : bool;      (** fault injection: keep serving decayed entries *)
}

val default_config : config
(** 1024 entries, 2 s positive / 1 s negative freshness, 1 s grace, fault
    knob off. *)

type entry = {
  providers : Rofl_idspace.Id.t array;  (** [[||]] = negative entry *)
  installed_ms : float;
  fresh_until_ms : float;
}

type t

val create : metrics:Rofl_netsim.Metrics.t -> config -> t

val length : t -> int
(** Exported for tests: test_lru_model checks the size against its model. *)

val find : t -> now:float -> Rofl_idspace.Id.t -> entry option
(** Consult the cache: a fresh entry is a (positive or negative) hit and is
    promoted; a decayed entry is dropped and counted as a miss — or, with
    [serve_stale], served anyway and counted toward {!served_expired} once
    past the grace window. *)

val install : t -> now:float -> Rofl_idspace.Id.t -> Rofl_idspace.Id.t array -> unit
(** Cache an owner's answer ([[||]] installs a negative entry with the
    negative TTL); evicts the least-recently-used binding when full. *)

val served_expired : t -> int
(** Positive or negative answers served from entries decayed past the grace
    window — must be 0 unless the fault knob is on; audited by the
    doctor. *)

