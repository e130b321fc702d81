(** The stale-successor oracle: instrumentation no protocol decision
    consults (but a poisoned router's choice of ghosts, {!ever_member}).  A
    holder whose successor pointer names a departed identifier is stale
    from the departure until the pointer names a live member. *)

open Types

val create : hint:int -> (Rofl_idspace.Id.t * int) array -> oracle
(** The mirror of the bootstrap ring (members sorted by identifier, each
    admitted and pointing at the next); [hint] sizes its table. *)

val log : shard_state -> oev -> unit
(** Append a fact to the shard's log. *)

val repoint : t -> router:int -> int -> (Rofl_idspace.Id.t * int) option -> unit
(** Write a slot's successor pointer: every successor-pointer write of the
    protocol funnels through here, so the log mirrors the ring. *)

val admit : t -> Rofl_idspace.Id.t -> unit
(** Mark an identifier as admitted (global context only). *)

val depart : t -> Rofl_idspace.Id.t -> unit
(** Log a departure at the coordinator's clock (global context only). *)

val ever_member : t -> Rofl_idspace.Id.t -> bool
(** Was this identifier ever admitted, even if gone since?  False for a
    pointer at large is poisoning evidence: fabrications never are. *)

val stale_windows : t -> float list
(** Completed stale-successor windows (ms), in completion order: for each
    holder whose successor pointer named a departed identifier, the time
    from the departure until the pointer was repointed at a live one. *)

val stale_open : t -> int
(** Holders whose successor pointer is stale right now. *)

val stale_open_since : t -> (Rofl_idspace.Id.t * float) list
(** Holders whose successor pointer is stale right now, with the simulated
    time their window opened; sorted by identifier. *)
