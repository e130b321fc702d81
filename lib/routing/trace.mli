(** Uniform per-hop trace of a greedy walk.

    Both routing layers emit one event per unit of forwarding work — a ring
    or cache hop, a bloom-filter peer crossing, a false-positive or
    stale-pointer reversal — so experiments and the [--trace] CLI can show
    the anatomy of a lookup without knowing which layer produced it. *)

module Id = Rofl_idspace.Id

type kind =
  | Ring  (** following ring state (successor / finger pointers) *)
  | Cache  (** following a cached pointer shortcut *)
  | Flood  (** a bloom-filter peer crossing (§4.2) *)
  | Backtrack
      (** a reversal: bloom false positive back over the peering link, or a
          stale-pointer NACK restart (§4.1) *)

(** The ring an event moves on. *)
type level =
  | Intra  (** an intradomain walk's ring *)
  | Peer  (** a bloom-filter peering link, outside any ring *)
  | Root  (** the interdomain root ring *)
  | As of int  (** the ring of an AS's customer cone *)
  | Virtual_as of int  (** the ring of a peering group's virtual AS *)

type event = {
  kind : kind;
  router : int;  (** router (intra) or AS (inter) the event lands on *)
  level : level;
  dist : Id.t;  (** clockwise distance to the walk's target at this event *)
}

type t = event list

val kind_to_string : kind -> string

val level_to_string : level -> string
(** ["intra"], ["peer"], ["root"], ["AS<n>"] or ["vAS<n>"]: the names
    interdomain levels print under. *)

val count : t -> kind -> int

val counts : t -> (string * int) list
(** Event totals keyed by {!kind_to_string}, every kind present. *)

val to_lines : t -> string list
(** One human-readable line per event, numbered in walk order. *)

(** Accumulator threaded through a walk; events are recorded in walk order. *)
type builder

val builder : unit -> builder

val record : builder -> kind:kind -> router:int -> level:level -> dist:Id.t -> unit

val events : builder -> t
