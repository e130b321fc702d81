(** Message and load accounting for the simulations.

    Every control or data message a protocol sends is charged here, tagged
    with a category, so experiments can report join overhead, repair
    overhead, and per-router load exactly the way the paper does. *)

type t

val create : routers:int -> t
(** [routers] sizes the per-router load table. *)

val incr : t -> string -> int -> unit
(** [incr m category k] adds [k] messages to a category. *)

val handle : t -> string -> int ref
(** Interned counter cell for a category: hoists the hashtable probe out of
    hot loops so per-hop charging is allocation-free.  The same cell
    {!charge_hop}/{!incr} update — counts stay coherent however they are
    charged. *)

val charge_hop : t -> string -> int -> unit
(** [charge_hop m category router] counts one message traversing [router]
    under [category], and adds it to that router's load. *)

val charge_path : t -> string -> int list -> unit
(** Charge a message travelling a hop-by-hop router path: one message per
    link traversed, and load at every router the message transits
    (intermediate and endpoints). *)

val get : t -> string -> int

val total : t -> int
(** Sum over all categories. *)

val categories : t -> (string * int) list
(** Sorted by category name. *)

val router_load : t -> int array
(** Per-router message-traversal counts (copy). *)

val charge_wasted : t -> int -> unit
(** Duplicate-work accounting for α-parallel lookups: ring hops walked by a
    losing branch whose answer was discarded.  Kept apart from the message
    categories — the hops were already charged there when they happened;
    this ledger answers "how much of that traffic was redundancy?". *)

val charge_cancelled : t -> int -> unit
(** Count cooperative cancellations issued to in-flight sibling branches
    once a lookup's first branch succeeds. *)

val wasted_hops : t -> int

val cancellations : t -> int

val charge_join_reject : t -> unit
(** Count a join claim that failed challenge/response verification and was
    turned away at the gateway — the headline defense of the attack lab. *)

val charge_promo_reject : t -> unit
(** Count a successor-list backup that failed verification (absent, forged,
    or unresponsive) during failover promotion. *)

val join_rejects : t -> int

val promo_rejects : t -> int

val reset : t -> unit

val merge_into : dst:t -> t -> unit
(** Add counts of another metrics object (router tables must be same size). *)
