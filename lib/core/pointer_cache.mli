(** Bounded pointer caches with greedy best-match lookup.

    "Whenever a source route is established, the routers along the path can
    cache the route. […] The pointer-cache of routers is limited in size, and
    precedence is given to pointers in the [ring-state] class" (§2.2).  This
    cache stores the {e cached} class: ring state lives in vnodes and is
    never evicted.  Lookup answers the greedy question — the cached
    identifier closest to, but not past, a destination — in O(log n) via a
    ring-ordered index over a slot table, with least-recently-used eviction
    tracked by a recency list threaded through the same slots.  An entry
    is no record but three columns of one slot: the destination identifier,
    the route block, and one int packing the hosting router with the start
    hop and {!Pointer.kind}.  Every column and index is flat and mutated in
    place, so once its columns have grown a full cache inserts, evicts,
    looks up and drops without allocating.  Readers get a slot and read the
    columns they need; a slot stays valid until the next insert, remove,
    drop or clear. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument on a negative capacity or one over [2^29].  A capacity-0 cache
    ignores every insert. *)

val capacity : t -> int
(** Kept for perfbench, which reports the cache fill ratio. *)

val length : t -> int

val insert :
  t -> Pointer.kind -> dst:Rofl_idspace.Id.t -> dst_router:int -> route:Sourceroute.t ->
  start:int -> unit
(** Insert the entry {!Pointer.make} would build from the same arguments
    (checked by the same {!Pointer.pack}, which raises [Invalid_argument]),
    keyed by [dst], evicting the LRU entry if full.  A re-insert refreshes recency
    and replaces the route, router, start and kind. *)

val none : int
(** [-1]: the slot of no entry. *)

val find : t -> Rofl_idspace.Id.t -> int
(** Exact lookup: [dst]'s slot, or {!none} (refreshes recency). *)

val best_match : t -> cur:Rofl_idspace.Id.t -> target:Rofl_idspace.Id.t -> int
(** The slot of the cached entry whose identifier lies in the ring interval
    [(cur, target]] and is closest to [target] — i.e. strictly better
    greedy progress than standing still at [cur], and never past the
    target — or {!none} when there is none.  Refreshes recency of the
    returned entry. *)

(** {2 Columns of a slot} *)

val dst : t -> int -> Rofl_idspace.Id.t
val dst_router : t -> int -> int
val route : t -> int -> Sourceroute.t
(** The block holding the source route; the entry's route is its slice
    from {!start}. *)

val start : t -> int -> int
val kind : t -> int -> Pointer.kind

val remove : t -> Rofl_idspace.Id.t -> unit

val drop_if : t -> (t -> int -> bool) -> int
(** [drop_if c doomed] removes every entry whose slot [s] has [doomed c s]
    (e.g. routes through a failed link), most recently used first, and
    returns the number dropped.  The predicate reads the columns it needs;
    one predicate serves every cache, and the sweep allocates nothing. *)

val iter : t -> (int -> unit) -> unit
(** Every slot, most recently used first.
    Exported for tests: the cache tests compare the entries with models. *)

val clear : t -> unit
(** Exported for tests: test_lru_model replays it against a list model. *)

val audit : t -> string list
(** Structural agreement between the recency list and the ring-ordered
    index: the list's back-links and tail are consistent, it holds exactly
    the indexed slots (each of its entries found in the index at its own
    slot, no index entry off the list), the index is strictly sorted under
    its current keys, no more entries than the capacity, every slot either
    indexed or free, and every route column ending at its router column
    with the start hop on the route.  Empty iff consistent — the ring
    doctor runs this at checkpoints, since a divergence silently corrupts
    {!best_match} answers. *)
