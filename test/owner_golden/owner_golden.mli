(** Recorded goldens of the α-branch owner walk, shared by the test suite
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

val summary :
  Rofl_proto.Proto.t ->
  alpha:int ->
  from:int array ->
  targets:Rofl_idspace.Id.t array ->
  string
(** Walks lookup [k] from [from.(k)] toward [targets.(k)] with
    {!Rofl_proto.Proto.walk_owner} at [alpha], in order, and sums the
    records into one line: resolved count, Σ ring hops, Σ link hops and
    Σ latency ([%.6f]) of the charged branches, Σ wasted ring and link hops,
    cancellations, and the MD5 of the concatenated (owner hex, owner router)
    pairs of the resolved lookups. *)

val expected : (int * string) list
(** [(alpha, summary)] recorded for α = 1 and α = 3. *)
