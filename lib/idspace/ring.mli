(** Ordered view of a set of identifiers on the circular namespace.

    The simulator keeps one of these as ground truth to (a) answer oracle
    queries when constructing expected ring state and (b) check the routing
    layer's invariants (every vnode's successor pointer must agree with the
    oracle in steady state).  Each identifier carries a payload (typically the
    hosting router or AS).

    Representation: a chunked flat sorted array (spine of first-ids over
    chunks of at most 128 parallel [Id.t]/payload entries), mutated in
    place.  [add]/[remove] shift one chunk's tail; a chunk starts at its
    exact size and grows by at most half again, so spare capacity stays
    small.  A ring is a mutable value owned by one task: there are no
    snapshots, and a ring must not be read from one domain while another
    updates it.  All read paths are allocation-free binary searches except
    where an [option]/list result is part of the signature; the
    {{!cursors} cursor API} below avoids even that. *)

type 'a t

val create : unit -> 'a t
(** A new empty ring. *)

val cardinal : 'a t -> int
(** O(1). *)

val is_empty : 'a t -> bool

val add : Id.t -> 'a -> 'a t -> unit
(** Insert or replace, in place.  Shifts at most one chunk's tail; a full
    chunk first splits in two, which rebuilds the spine. *)

val remove : Id.t -> 'a t -> unit
(** In place; a no-op for a non-member.  Re-merges a chunk that shrinks
    below a quarter of the maximum with a neighbour, so churn cannot
    fragment the spine. *)

val mem : Id.t -> 'a t -> bool
(** O(log n), allocation-free. *)

val find : Id.t -> 'a t -> 'a option
(** O(log n); allocates only the [Some].
    Exported for tests: test_idspace compares it with a map model. *)

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

val iter : (Id.t -> 'a -> unit) -> 'a t -> unit
(** Members in increasing identifier order.
    @raise Invalid_argument if the callback adds or removes a member. *)

val audit : 'a t -> string list
(** Structural checks: every chunk holds 1 to 128 entries, the spine names
    each chunk's first member, the size is the sum of the chunk lengths and
    every stored key is its identifier's [Id.key].  Empty iff consistent.
    Exported for tests: test_idspace's model property checks the chunk
    structure. *)

(** {2:cursors Allocation-free cursors}

    A cursor is a position inside a ring, packed into an immediate [int]
    (no heap allocation anywhere in this API).  A cursor is only meaningful
    until the ring's next [add] or [remove].
    All searches are O(log n); stepping is O(1) and wraps clockwise. *)

type cursor = int
(** [< 0] means "no position" (empty ring / not found). *)

val cursor_is_none : cursor -> bool

val cursor_equal : cursor -> cursor -> bool
(** Kept as a reference: test_idspace's cursor stepping checks prev inverts
    next through it. *)

val cursor_gt : Id.t -> 'a t -> cursor
(** First member strictly clockwise of [x] in linear order, wrapping to the
    minimum; none iff empty.  Mirrors {!successor}. *)

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
