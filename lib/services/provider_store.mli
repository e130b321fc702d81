(** Struct-of-arrays storage for placed provider records.

    One record per placed (service, provider) copy: the flat service
    identifier, the provider host identifier, the hosting (owner) router,
    and its TTL window.  Same layout
    discipline as the proto resident store: every field is a flat column, a
    record is a slot index, slots recycle through a freelist, and the
    per-service index Hashtbl is sized from the caller's load hint.  Records
    chain twice — per hosting router (doctor residency sweeps) and per
    service (resolver reads) — so neither access path scans the store.

    A slot index is stable only while the record is alive; callers that park
    one across simulated time must revalidate it through {!gen}. *)

type t

val create : routers:int -> hint:int -> unit -> t
(** [hint] pre-sizes the columns and the service index for the expected
    record population (Little's law: active intents, i.e. services x
    providers per service); both grow regardless. *)

val live : t -> int
val publish :
  t ->
  service:Rofl_idspace.Id.t ->
  provider:Rofl_idspace.Id.t ->
  owner:int ->
  now:float ->
  ttl_ms:float ->
  [ `Placed of int | `Refreshed of int ]
(** Upsert the copy of (service, provider) hosted at [owner]: refresh its
    TTL window when present, place a fresh record otherwise.  A copy of the
    same pair at a {e different} owner is left alone — after an ownership
    change the old copy decays by TTL, which is exactly the staleness the
    campaign measures. *)

val find :
  t ->
  service:Rofl_idspace.Id.t ->
  provider:Rofl_idspace.Id.t ->
  owner:int ->
  int
(** Slot of the copy hosted at [owner], or [-1].
    Exported for tests: test_services checks slots against a model. *)

val sweep : t -> now:float -> int
(** Drop every record whose TTL window closed before [now]; returns the
    count dropped. *)

val providers_at_into :
  t -> service:Rofl_idspace.Id.t -> at:int -> now:float -> Rofl_idspace.Id.t array -> int
(** Distinct unexpired providers recorded for [service] at hosting router
    [at], written into the scratch buffer; returns the count.  The buffer
    must hold at least {!service_records} entries.  Allocation-free. *)

val service_records : t -> Rofl_idspace.Id.t -> int
(** Number of live copies (all owners) recorded for a service. *)

(** {2 Column accessors} *)

val service : t -> int -> Rofl_idspace.Id.t
val owner : t -> int -> int
val expires_ms : t -> int -> float
val gen : t -> int -> int
(** Slot-handle epoch: bumped on every allocation of the slot.  A parked
    [(slot, gen)] pair is valid iff the stored gen still matches. *)

val iter : t -> (int -> unit) -> unit
