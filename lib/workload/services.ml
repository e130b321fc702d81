module Prng = Rofl_util.Prng

(* Open-loop service-resolution workload with phases.

   Demand is Zipf-skewed over service ranks (rank 1 = hottest) with a
   fixed fraction of queries for names that were never published (the
   negative-caching traffic).  Two phases stress the layer the way real
   deployments break:

   - the *flash crowd*: during [flash_start, flash_start + flash_len) the
     arrival rate multiplies by [flash_mult] and the extra traffic
     concentrates on the [flash_focus] hottest ranks — the popularity
     concentration that decides whether a response cache saves the owner;

   - *provider flaps*: a Poisson stream of (service, provider) toggles, the
     source of genuinely stale cached answers the campaign's oracle
     comparison measures.

   The republish *storm* is not generated here: republish timing belongs to
   the directory (it is control-plane, not demand), and the campaign
   triggers it with [Directory.republish_all] at its configured instant.

   Events are sorted by time with a stable per-kind sequence, and the whole
   trace is a pure function of the generator state — the determinism the
   campaign's jobs/shards byte-identity rests on. *)

type event =
  | Resolve of { at_ms : float; rank : int; seq : int }
      (** [rank] in [1..services]; rank 0 = a never-published name *)
  | Flap of { at_ms : float; service : int; provider : int; seq : int }
      (** toggle provider [provider] of service [service] (1-based rank) *)

let providers_per_service = 2
let zipf_s = 0.9
let unknown_fraction = 0.05
let flash_mult = 8.0
let flash_focus = 2

let event_time = function Resolve { at_ms; _ } | Flap { at_ms; _ } -> at_ms

let generate rng ~horizon_ms ~services ~rate_per_s ~flash_start_ms ~flash_len_ms
    ~flap_rate_per_s =
  if services < 1 then invalid_arg "Services.generate: services must be >= 1";
  if rate_per_s <= 0.0 then invalid_arg "Services.generate: rate must be positive";
  let flash = flash_len_ms > 0.0 in
  let focus = min flash_focus services in
  let in_flash at = flash && at >= flash_start_ms && at < flash_start_ms +. flash_len_ms in
  let events = ref [] in
  let seq = ref 0 in
  let rate_at at = if in_flash at then rate_per_s *. flash_mult else rate_per_s in
  (* Piecewise-constant Poisson arrivals by thinning against the peak rate:
     one exponential stream at the maximum, arrivals kept with probability
     rate(t)/peak — exact for piecewise-constant rates and immune to the
     boundary drift of segment-by-segment generation. *)
  let peak = if flash then rate_per_s *. flash_mult else rate_per_s in
  let gap_ms = 1000.0 /. peak in
  let clock = ref (Prng.exponential rng gap_ms) in
  while !clock < horizon_ms do
    let at = !clock in
    if Prng.float rng 1.0 < rate_at at /. peak then begin
      let rank =
        (* the crowd's excess traffic is all focus-ranked *)
        let hot = in_flash at && Prng.float rng 1.0 < (flash_mult -. 1.0) /. flash_mult in
        if hot then 1 + Prng.int rng focus
        else if Prng.float rng 1.0 < unknown_fraction then 0
        else Prng.zipf rng ~n:services ~s:zipf_s
      in
      let s = !seq in
      incr seq;
      events := Resolve { at_ms = at; rank; seq = s } :: !events
    end;
    clock := !clock +. Prng.exponential rng gap_ms
  done;
  if flap_rate_per_s > 0.0 then begin
    let gap_ms = 1000.0 /. flap_rate_per_s in
    let clock = ref (Prng.exponential rng gap_ms) in
    while !clock < horizon_ms do
      let s = !seq in
      incr seq;
      events :=
        Flap
          {
            at_ms = !clock;
            service = 1 + Prng.int rng services;
            provider = Prng.int rng providers_per_service;
            seq = s;
          }
        :: !events;
      clock := !clock +. Prng.exponential rng gap_ms
    done
  end;
  List.sort
    (fun a b ->
      let c = compare (event_time a) (event_time b) in
      if c <> 0 then c
      else
        compare
          (match a with Resolve { seq; _ } | Flap { seq; _ } -> seq)
          (match b with Resolve { seq; _ } | Flap { seq; _ } -> seq))
    !events
