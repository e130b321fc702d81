(** Ablations of the design choices DESIGN.md calls out.

    Tables contrasting each mechanism on vs off:
    control-path caching (stretch), zero-ID partition repair (ring
    consistency after a merge), peering via virtual ASes vs bloom filters
    (join overhead vs state), bottom-up vs root-only finger placement
    (stretch and isolation), and the redundant-lookup elimination of
    multihomed joins (§6.3). *)

val all : Common.scale -> Rofl_util.Table.t list
