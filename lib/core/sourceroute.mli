(** Hop-by-hop router source routes, stored flat.

    A source route is "a hop-by-hop series of physically connected router IDs
    that goes from one hosting router to another" (§2.1).  Here routers are
    the dense indices of the topology graph, and a route is one byte block:
    a little-endian uint16 router index per hop, both endpoints included,
    2 bytes a hop and no box per route.  {!Rofl_linkstate.Linkstate.create}
    bounds routers below 0xFFFF, so every index fits.

    A route is read as a {e slice}: the suffix from hop [start] on, which
    leads from the router at hop [start] to the route's destination.  Every
    suffix of a control path reaches the same destination, so one block can
    serve the cached pointers of every router along the path, each at its
    own start.  Blocks are never written after they are built; a shared
    block lives as long as its longest-lived slice. *)

type t = private Bytes.t

val of_block : Bytes.t -> t
(** Take a block in the route format, such as a
    {!Rofl_linkstate.Linkstate.route} result; the empty block (no route)
    is accepted.  The block must not be written afterwards.  Raises
    [Invalid_argument] on an odd length. *)

val singleton : int -> t
(** The one-hop route of a router to itself.  Raises [Invalid_argument]
    outside [0, 0xFFFF). *)

val routers : t -> int
(** Routers on the whole route (0 for the empty block). *)

val router : t -> int -> int
(** [router t i] is the router at hop [i], counting from 0. *)

val destination : t -> int
(** The last router, read in O(1).  Raises [Invalid_argument] on the
    empty block. *)

val length : t -> int -> int
(** [length t start]: links traversed by the slice from [start] (0 for a
    slice of one router).
    Exported for tests: test_core and test_intra check slice lengths. *)

val contains_router : t -> int -> int -> bool
(** [contains_router t start r]: the slice from [start] visits [r]. *)

val uses_link : t -> int -> int -> int -> bool
(** [uses_link t start u v]: the slice from [start] crosses the link
    between [u] and [v], in either direction. *)

val is_valid : Rofl_linkstate.Linkstate.t -> t -> int -> bool
(** [is_valid ls t start]: the slice from [start] is non-empty and every
    router and link on it is alive. *)
