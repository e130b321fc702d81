(** Bounded LRU map.

    Backs the service resolvers' response caches: bounded capacity, O(1)
    lookup and insert, least-recently-used eviction.  Keys are hashed with
    polymorphic hashing; use only with keys whose structural equality is the
    intended one. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [create ~capacity] makes an empty cache.  [capacity < 0] is an error;
    capacity 0 means the cache stores nothing. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; promotes the entry to most-recently-used. *)

val put : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Insert or replace; returns the binding evicted to make room, if any
    (which is the new binding itself when capacity is zero). *)

val remove : ('k, 'v) t -> 'k -> unit

