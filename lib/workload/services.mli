(** Zipf-skewed open-loop service-resolution demand with flash-crowd and
    provider-flap phases.

    The demand side of the service-discovery campaign: Poisson resolution
    arrivals whose targets follow a Zipf popularity law (rank 1 hottest),
    with a fixed fraction aimed at never-published names (negative
    caching traffic), a flash-crowd window during which the rate multiplies
    and the excess concentrates on the hottest ranks, and a Poisson stream
    of provider up/down toggles — the source of genuinely stale cached
    answers.  Republish storms are control-plane and belong to the
    directory; the campaign triggers them directly.

    The trace is a pure function of the generator: sorted by time, stable
    sequence numbers, no draws outside generation. *)

type event =
  | Resolve of { at_ms : float; rank : int; seq : int }
      (** resolve the service at popularity [rank] (1-based); rank 0 asks
          for a name that was never published *)
  | Flap of { at_ms : float; service : int; provider : int; seq : int }
      (** toggle provider index [provider] of service rank [service] *)

val providers_per_service : int
(** 2 providers per service; flaps pick one of them. *)

val zipf_s : float
(** 0.9: Zipf skew of the demand over the services. *)

val unknown_fraction : float
(** 0.05: share of demand aimed at never-published names. *)

val flash_mult : float
(** 8: arrival-rate multiplier during the flash crowd. *)

val flash_focus : int
(** 2: the flash crowd hammers the [min flash_focus services] hottest
    ranks. *)

val event_time : event -> float

val generate :
  Rofl_util.Prng.t ->
  horizon_ms:float ->
  services:int ->
  rate_per_s:float ->
  flash_start_ms:float ->
  flash_len_ms:float ->
  flap_rate_per_s:float ->
  event list
(** The flash crowd covers [\[flash_start_ms, flash_start_ms +
    flash_len_ms)]; [flash_len_ms <= 0] disables it, and
    [flap_rate_per_s <= 0] generates no flaps. *)

val count : event list -> int * int
(** (resolves, flaps). *)
