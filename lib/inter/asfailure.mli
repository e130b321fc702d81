(** Stub-AS failures (§6.3 "Failures").

    The paper fails randomly selected stub ASes and reports (a) the fraction
    of Internet paths affected (99.998 % unaffected) and (b) the repair
    traffic, roughly one message per identifier hosted in the failed stub. *)

type stub_failure = {
  ids_lost : int;
  repair_msgs : int;
  fraction_paths_affected : float;
  (** over sampled pairs, pre-failure, including pairs rooted at the stub *)
  transit_fraction_affected : float;
  (** excluding pairs that originate or terminate at the failed stub — the
      paper's containment claim is that this is ~0 *)
}

val fail_stub : Net.t -> int -> samples:int -> stub_failure
(** Fail an AS: every resident identifier leaves all rings, per-level ring
    neighbours repair (de-duplicated across nested levels, charged to
    [repair]), caches purge, blooms forget. *)

val restore_as : Net.t -> int -> unit
(** Exported for tests: the recovery half of fail_stub; test_inter's
    invariant and edge cases restore through it. *)
