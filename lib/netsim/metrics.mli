(** Message, load and event accounting for the simulations: the one counter
    registry every layer charges and every report reads.

    Every control or data message a protocol sends is charged here, tagged
    with a category, so experiments can report join overhead, repair
    overhead, and per-router load exactly the way the paper does.  Protocol
    events (timeouts, failovers, rejections, duplicate work) are counted in
    the same registry but never enter the message totals.

    Walk convention: a walk charges its origin router once at injection and
    then one hop per link traversal, but message counts cover link
    traversals only — {!inject} adds the origin's load and no message. *)

type counter =
  (* Message categories. *)
  | Join                (** join request/iteration traffic (Algorithms 1, 3) *)
  | Join_reply          (** replies carrying successor/predecessor state back *)
  | Teardown            (** pointer tear-down on host/router failure (§3.2) *)
  | Flood               (** bootstrap floods and link-state floods *)
  | Directed_flood      (** source-routed invalidation to predecessor-path routers *)
  | Zero_id             (** zero-ID advertisements for partition repair *)
  | Repair              (** re-join traffic triggered by failure recovery *)
  | Finger              (** finger acquisition and maintenance (§4.1) *)
  | Data                (** data-plane packets *)
  | Ospf_data           (** data packets of the OSPF-over-hosts baseline *)
  | Lookup              (** message-driven lookups *)
  | Stabilize           (** stabilisation probes and replies *)
  | Verify              (** identifier challenge/response round trips *)
  | Refresh             (** pointer-cache liveness refresh *)
  | Svc_publish_msg     (** link traversals of service publish walks *)
  | Svc_resolve_msg     (** link traversals of service resolve misses *)
  | Svc_republish       (** publish operations completed *)
  | Svc_expired         (** records dropped by TTL sweeps *)
  | Svc_stale_answer    (** answers that disagreed with the oracle *)
  | Svc_cache_hit
  | Svc_cache_miss
  | Svc_cache_neg_hit
  | Svc_cache_evict
  (* Events. *)
  | Wasted_hops
      (** ring hops walked by a losing α-branch whose answer was discarded;
          the hops were already charged to a category when they happened *)
  | Cancellations       (** cooperative cancellations of in-flight sibling branches *)
  | Join_rejects        (** join claims that failed verification at the gateway *)
  | Promo_rejects       (** successor-list backups that failed promotion verification *)
  | Joins_done
  | Joins_failed        (** joins abandoned after every retry timed out *)
  | Failovers           (** successor-list promotions after probe timeouts *)
  | Rpc_timeouts
  | Join_retries
  | Lookup_retries

val name : counter -> string
(** Stable report name (["join"], ["join-reply"], ["svc-cache-hit"], ...).
    Exported for tests: test_core pins the frozen category names. *)

val messages : counter list
(** The message categories, in declaration order.
    Exported for tests: test_core pins the frozen category names. *)

val events : counter list
(** The event counters, in declaration order.
    Exported for tests: test_core and test_netsim walk every counter. *)

type t

val create : routers:int -> t
(** [routers] sizes the per-router load table. *)

val incr : t -> counter -> int -> unit
(** [incr m c k] adds [k] to [c], with no per-router load. *)

val charge_hop : t -> counter -> int -> unit
(** [charge_hop m c router] counts one message traversing [router] under
    [c], and adds it to that router's load. *)

val add_load : t -> int -> unit
(** [add_load m router] adds one message traversal to [router]'s load
    (ignored for a router outside the table), with no message counted. *)

val charge_path : t -> counter -> int list -> unit
(** Charge a message travelling a hop-by-hop router path: one message per
    link traversed, and load at every router the message transits
    (intermediate and endpoints).

    Kept as the list reference: no product code holds a list path any
    more ([Network.charge_spf_into] and [Ospf_hosts.route] charge from the
    SPF tree's labels), and test_linkstate checks them against this. *)

val inject : t -> counter -> int -> unit
(** [inject m c origin] accounts a walk's injection: load at the origin
    router, zero messages; [c] is listed by {!categories} from now on. *)

val get : t -> counter -> int

val total : t -> int
(** Sum over the message categories. *)

val categories : t -> (string * int) list
(** Every message category charged since creation or the last {!reset}
    (even if its net count is 0), with its count, sorted by name. *)

val router_load : t -> int array
(** Per-router message-traversal counts (copy). *)

val reset : t -> unit

val merge_into : dst:t -> t -> unit
(** Add every counter and the load table of another registry, and carry
    which categories were charged (router tables must be same size). *)
