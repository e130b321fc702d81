(** Recorded goldens of the batched owner walk, shared by the test suite
    and the bench's α gate.

    A seeded AS3967 ring with pointer caches warmed by async lookups and
    one crash left mid-repair, walked by 512 lookups.  The α=1 line was
    recorded from the sequential batch walk that preceded the α kernel as
    the only batched owner walk; the α=3 line from the α kernel on the same
    commit. *)

val ring :
  unit ->
  Rofl_proto.Proto.t * int array * Rofl_idspace.Id.t array
(** The scenario: the network, then the origin router and the target of
    each of the 512 lookups.  Deterministic; built fresh on every call. *)

val summary : Rofl_proto.Alpha.t -> string
(** One line over every lookup of the last {!Rofl_proto.Alpha.run}:
    resolved count, Σ ring hops, Σ link hops, Σ latency ([%.6f]), Σ wasted
    ring and link hops, cancellations, and the MD5 of the concatenated
    (owner hex, owner router) pairs of the resolved lookups. *)

val expected : (int * string) list
(** [(alpha, summary)] recorded for α = 1 and α = 3. *)
