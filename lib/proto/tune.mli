(** The protocol's own network-size estimate and the self-tuning
    stabilisation it drives ({!Types.config.stabilize_auto}): probe-period
    multiplier and successor-list target from N̂ and the churn rate. *)

open Types

val estimate_n : t -> float
(** The median over residents of L·2^128/span(succ-list); 0 with no
    members. *)

val auto_retune : t -> now:float -> unit
(** Once per stabilisation round in auto mode: re-derive both knobs. *)

val auto_state : t -> (float * float * int) option
(** [(N̂, period multiplier, successor-list backup target)] when auto-tuned
    stabilisation is on, [None] otherwise. *)

val cap_list : config -> population:int -> int
(** Successor-list capacity of the store: the static backup count, or
    ⌈log2 (population + 1)⌉ headroom in auto mode. *)
