(** Bounded pointer caches with greedy best-match lookup.

    "Whenever a source route is established, the routers along the path can
    cache the route. […] The pointer-cache of routers is limited in size, and
    precedence is given to pointers in the [ring-state] class" (§2.2).  This
    cache stores the {e cached} class: ring state lives in vnodes and is
    never evicted.  Lookup answers the greedy question — the cached
    identifier closest to, but not past, a destination — in O(log n) via a
    ring-ordered index over a slot table, with least-recently-used eviction
    tracked by a recency list threaded through the same slots.  Both are
    flat and mutated in place, so once its slot table has grown a full
    cache inserts, evicts and looks up without allocating. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument on a negative capacity.  A capacity-0 cache
    ignores every insert. *)

val capacity : t -> int
(** Kept for perfbench, which reports the cache fill ratio. *)

val length : t -> int

val insert : t -> Pointer.t -> unit
(** Insert keyed by the pointer's destination identifier, evicting the LRU
    entry if full.  A re-insert refreshes recency and replaces the route. *)

val find : t -> Rofl_idspace.Id.t -> Pointer.t option
(** Exact lookup (refreshes recency). *)

val best_match : t -> cur:Rofl_idspace.Id.t -> target:Rofl_idspace.Id.t -> Pointer.t
(** The cached pointer whose identifier lies in the ring interval
    [(cur, target]] and is closest to [target] — i.e. strictly better greedy
    progress than standing still at [cur], and never past the target —
    or {!Pointer.placeholder} (physically) when there is none.  Refreshes
    recency of the returned entry.  The stored pointer itself is returned,
    so a probe allocates nothing. *)

val remove : t -> Rofl_idspace.Id.t -> unit

val drop_if : t -> (Pointer.t -> bool) -> int
(** Remove entries matching a predicate (e.g. routes through a failed link);
    returns the number dropped. *)

val iter : t -> (Pointer.t -> unit) -> unit
(** Most recently used first.
    Exported for tests: the cache tests compare the entries with models. *)

val clear : t -> unit
(** Exported for tests: test_lru_model replays it against a list model. *)

val audit : t -> string list
(** Structural agreement between the recency list and the ring-ordered
    index: the list's back-links and tail are consistent, it holds exactly
    the indexed slots (each of its entries found in the index at its own
    slot, no index entry off the list), the index is strictly sorted under
    its current keys, no more entries than the capacity, and every pointer
    slot either indexed or free.  Empty
    iff consistent — the ring doctor runs this at checkpoints, since a
    divergence silently corrupts {!best_match} answers. *)
