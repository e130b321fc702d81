(** Annotated AS-level graphs.

    The interdomain substrate: ASes are dense integer indices; edges carry
    Gao-style relationships — customer–provider, peer–peer, and backup links
    (used only under failure, §4.2).  The customer–provider subgraph must be
    acyclic (a hierarchy); {!validate} checks this.  Customer cones and
    up-hierarchies, the two structures Canon-style merging is defined over,
    are computed here. *)

type t

val create : int -> t
(** [create n] makes a graph over ASes [0 .. n-1] with no links. *)

val n : t -> int

val add_provider : t -> customer:int -> provider:int -> unit
(** Add a customer→provider edge (rejects duplicates and self-edges). *)

val add_peer : t -> int -> int -> unit
(** Add a symmetric peering edge. *)

val add_backup : t -> customer:int -> provider:int -> unit
(** Add a backup transit edge: ignored by joins and by policy routing unless
    the primary paths have failed. *)

val providers : t -> int -> int list

val customers : t -> int -> int list

val peers : t -> int -> int list

val backup_providers : t -> int -> int list

val backup_customers : t -> int -> int list

val is_provider_edge : t -> customer:int -> provider:int -> bool

val is_peer_edge : t -> int -> int -> bool

val multihomed : t -> int -> bool
(** More than one (non-backup) provider. *)

val validate : t -> (unit, string) result
(** Check the customer–provider subgraph is acyclic and peering is
    symmetric. *)

val topo_order : t -> int array
(** ASes ordered providers-first (valid only after {!validate}).

    Exported for tests: test_asgraph checks the providers-first order the
    derived tables are built in. *)

val customer_cone : t -> int -> Rofl_util.Bitset.t
(** The AS itself plus all ASes reachable downward via customer edges — the
    set of identifiers "below" an AS.  Cones, their sizes and every
    up-hierarchy are computed together on first use, kept until the next
    {!add_provider}, and read in O(1) afterwards. *)

val in_cone : t -> root:int -> int -> bool

val cone_size : t -> int -> int
(** Cardinal of {!customer_cone}, precomputed. *)

val up_hierarchy : t -> int -> int list
(** [G_X]: every AS reachable from [X] by climbing provider edges, including
    [X] itself, ordered by increasing customer-cone size (lowest level
    first).  The paper reports 75–100 ASes typical (§6.3).  Precomputed. *)

val tier1s : t -> int list
(** ASes with no providers. *)

val least_common_ancestors : t -> int -> int -> int list
(** ASes that are in both up-hierarchies and minimal by cone size — the
    "earliest common ancestor" bound of the isolation property.

    Kept as a reference: the isolation bound; the bench inter-route rows
    pick each pair's level by it. *)
