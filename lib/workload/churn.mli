(** Churn traces: timed join/leave/move/crash event sequences.

    Drives the failure-recovery, mobility and churn-campaign experiments:
    sessions arrive as a Poisson process, hold for exponentially-distributed
    lifetimes, and departures split into relocations (mobility), graceful
    leaves and silent crashes. *)

type event =
  | Join of { at_ms : float; seq : int }
  | Leave of { at_ms : float; seq : int }
  | Move of { at_ms : float; seq : int }
  | Crash of { at_ms : float; seq : int }
(** [seq] identifies the session whose host joins/leaves/moves/crashes. *)

val generate :
  Rofl_util.Prng.t ->
  horizon_ms:float ->
  arrival_rate_per_s:float ->
  mean_lifetime_s:float ->
  move_fraction:float ->
  ?crash_fraction:float ->
  unit ->
  event list
(** Events sorted by time; every [Leave]/[Move]/[Crash] follows its
    session's [Join].  A departure is a [Move] with probability
    [move_fraction], a [Crash] with probability [crash_fraction]
    (default 0), otherwise a [Leave]; the two fractions must not sum past
    1. *)

val event_time : event -> float

val event_seq : event -> int

val count : event list -> int * int * int * int
(** (joins, leaves, moves, crashes). *)

type session = {
  seq : int;
  joined_ms : float;
  departed_ms : float option; (** [None] when the session outlives the horizon *)
  departure : [ `Leave | `Move | `Crash ] option;
}

val sessions : event list -> session list
(** Per-session view of a trace, sorted by [seq] — what a campaign replays
    and what the property tests measure lifetimes over.
    Exported for tests: test_workload checks the session lifetimes. *)
