(** Fixed-size bitsets.

    Used for AS customer-cone membership, where subtree tests must be O(1)
    and thousands of sets coexist. *)

type t

val create : int -> t
(** All-zeros set over a universe of the given size. *)

val set : t -> int -> unit

val mem : t -> int -> bool

val cardinal : t -> int

val union_into : dst:t -> t -> unit
(** OR a set into [dst]; sizes must match. *)

val inter : t -> t -> t
(** Exported for tests: test_util checks it against a list model. *)

val to_list : t -> int list
(** Exported for tests: test_util reads sets back through it. *)
