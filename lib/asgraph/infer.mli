(** Degree-based AS relationship inference.

    The paper derives its interdomain topology by running the Subramanian
    et al. inference tool over Routeviews data (§6.1).  We reproduce the code
    path: given only an unannotated AS adjacency list, infer
    customer–provider and peering relationships from relative degrees, then
    build an {!Asgraph.t}.  In the experiments this is run over edge lists
    exported from the synthetic generator, and its accuracy against the
    ground-truth annotations is itself a test. *)

type edge = int * int

val infer : n:int -> edge list -> Asgraph.t
(** [infer ~n edges] annotates each undirected edge: the endpoint with the
    much larger degree becomes the provider; endpoints of comparable degree
    (degree ratio under 2) become peers.  Any cycle that inference would
    create in the customer–provider subgraph is broken by re-annotating the
    offending edge as peering, so the result always validates. *)

val agreement : truth:Asgraph.t -> Asgraph.t -> float
(** Fraction of edges whose inferred annotation matches the ground truth
    (backup edges in the truth count as provider edges). *)

val export_edges : Asgraph.t -> edge list
(** Undirected edge list (provider, peer and backup links alike), as the
    inference input. *)
