(** Bounded pointer caches with greedy best-match lookup.

    "Whenever a source route is established, the routers along the path can
    cache the route. […] The pointer-cache of routers is limited in size, and
    precedence is given to pointers in the [ring-state] class" (§2.2).  This
    cache stores the {e cached} class: ring state lives in vnodes and is
    never evicted.  Lookup answers the greedy question — the cached
    identifier closest to, but not past, a destination — in O(log n) via a
    ring-ordered index kept in sync with the LRU recency list.  The index is
    flat and mutated in place (no copy per insert), so a full cache inserts
    and evicts in a few words of allocation, all of it the LRU's. *)

type t

val create : capacity:int -> t

val capacity : t -> int

val length : t -> int

val insert : t -> Pointer.t -> unit
(** Insert keyed by the pointer's destination identifier, evicting the LRU
    entry if full.  A re-insert refreshes recency and replaces the route. *)

val find : t -> Rofl_idspace.Id.t -> Pointer.t option
(** Exact lookup (refreshes recency). *)

val best_match : t -> cur:Rofl_idspace.Id.t -> target:Rofl_idspace.Id.t -> Pointer.t option
(** The cached pointer whose identifier lies in the ring interval
    [(cur, target]] and is closest to [target] — i.e. strictly better greedy
    progress than standing still at [cur], and never past the target.
    Refreshes recency of the returned entry. *)

val remove : t -> Rofl_idspace.Id.t -> unit

val drop_if : t -> (Pointer.t -> bool) -> int
(** Remove entries matching a predicate (e.g. routes through a failed link);
    returns the number dropped. *)

val iter : t -> (Pointer.t -> unit) -> unit

val clear : t -> unit

val resize : t -> capacity:int -> unit

val audit : t -> string list
(** Structural agreement between the LRU recency list and the ring-ordered
    index: same cardinality, every LRU binding present in the index with the
    same destination pointer, no index entry the LRU has forgotten, the
    index strictly sorted under its current keys, and every pointer slot
    either indexed or free.  Empty
    iff consistent — the ring doctor runs this at checkpoints, since a
    divergence silently corrupts {!best_match} answers. *)
