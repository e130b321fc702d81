(** Ordered view of a set of identifiers on the circular namespace.

    The simulator keeps one of these as ground truth to (a) answer oracle
    queries when constructing expected ring state and (b) check the routing
    layer's invariants (every vnode's successor pointer must agree with the
    oracle in steady state).  Each identifier carries a payload (typically the
    hosting router or AS).

    Representation: a chunked flat sorted array (spine of first-ids over
    chunks of at most 128 parallel [Id.t]/payload entries).  Handles are
    immutable — [add]/[remove] copy one chunk plus the spine and share the
    rest, so any handle doubles as an O(1) snapshot and rings can be read
    concurrently from several domains.  All read paths are allocation-free
    binary searches except where an [option]/list result is part of the
    signature; the {{!cursors} cursor API} below avoids even that. *)

type 'a t

val empty : 'a t

val cardinal : 'a t -> int
(** O(1): the count rides on the handle. *)

val is_empty : 'a t -> bool

val add : Id.t -> 'a -> 'a t -> 'a t
(** Insert or replace.  O(chunk + spine) copied words, i.e. O(sqrt-ish of
    [n]) with the default chunking; splits an overfull chunk in two. *)

val remove : Id.t -> 'a t -> 'a t
(** O(chunk + spine); re-merges a chunk that shrinks below a quarter of the
    maximum with a neighbour, so churn cannot fragment the spine. *)

val mem : Id.t -> 'a t -> bool
(** O(log n), allocation-free. *)

val find : Id.t -> 'a t -> 'a option
(** O(log n); allocates only the [Some]. *)

val successor : Id.t -> 'a t -> (Id.t * 'a) option
(** [successor x r] is the first identifier strictly clockwise of [x]
    (cyclic; returns [x]'s own entry only if it is the sole member).
    [None] iff the ring is empty.  O(log n) binary search — use
    {!cursor_gt} on hot paths to avoid the tuple/option allocation. *)

val successor_incl : Id.t -> 'a t -> (Id.t * 'a) option
(** Like {!successor} but returns [x] itself when present.  O(log n). *)

val predecessor : Id.t -> 'a t -> (Id.t * 'a) option
(** First identifier strictly counter-clockwise of [x].  O(log n). *)

val k_successors : int -> Id.t -> 'a t -> (Id.t * 'a) list
(** The first [k] members strictly clockwise of [x], in ring order; fewer if
    the ring is smaller.  One O(log n) search then O(1) per step (the seed
    re-ran a full tree search per step). *)

val to_list : 'a t -> (Id.t * 'a) list
(** Members in increasing identifier order.  O(n). *)

val of_list : (Id.t * 'a) list -> 'a t

val iter : (Id.t -> 'a -> unit) -> 'a t -> unit

val filter : (Id.t -> 'a -> bool) -> 'a t -> 'a t
(** Single O(n) pass; the surviving count is tallied during the filter
    (the seed recomputed it with a second O(n) walk). *)

val members_between : Id.t -> Id.t -> 'a t -> (Id.t * 'a) list
(** Members in the half-open clockwise interval [(a, b\]], in increasing
    clockwise distance from [a].  O(log n + k) for [k] results — the
    qualifying members are a contiguous run of the clockwise walk, so no
    full-ring fold or sort is needed (the seed did both). *)

(** {2:cursors Allocation-free cursors}

    A cursor is a position inside one specific ring handle, packed into an
    immediate [int] (no heap allocation anywhere in this API).  Cursors are
    only meaningful against the exact handle they were obtained from:
    [add]/[remove]/[filter] return a new handle whose cursors are fresh.
    All searches are O(log n); stepping is O(1) and wraps clockwise. *)

type cursor = int
(** [< 0] means "no position" (empty ring / not found). *)

val cursor_is_none : cursor -> bool

val cursor_equal : cursor -> cursor -> bool

val cursor_gt : Id.t -> 'a t -> cursor
(** First member strictly clockwise of [x] in linear order, wrapping to the
    minimum; none iff empty.  Mirrors {!successor}. *)

val cursor_geq : Id.t -> 'a t -> cursor
(** Mirrors {!successor_incl}. *)

val cursor_lt : Id.t -> 'a t -> cursor
(** Mirrors {!predecessor}. *)

val cursor_find : Id.t -> 'a t -> cursor
(** Exact member, or none. *)

val cursor_next : 'a t -> cursor -> cursor
(** The next member clockwise, wrapping from the maximum to the minimum. *)

val cursor_prev : 'a t -> cursor -> cursor
(** The next member counter-clockwise, wrapping from minimum to maximum. *)

val id_at : 'a t -> cursor -> Id.t

val value_at : 'a t -> cursor -> 'a
