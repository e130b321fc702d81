(** Plumbing every mechanism of the actor engine shares: the fixed protocol
    constants, router clocks and RPC tokens, event scheduling and the
    message transport, slot lookup and successor-list adoption.  Nothing
    here decides protocol behaviour. *)

open Types

(** {2 Fixed protocol constants}

    Timing and redundancy values no experiment varies: part of the
    protocol, not of {!Types.config}. *)

val succ_list_len : int (* 4: the successor plus 3 backups (the static target) *)
val rpc_timeout_ms : float (* 100 ms: a stabilisation probe's or promotion challenge's *)
val rpc_retries : int (* 2: probe retries before the successor is declared dead *)
val rpc_backoff : float (* 2: timeout multiplier per retry of a probe, join or lookup *)
val pred_timeout_ms : float (* 600 ms: silence after which a predecessor is presumed dead *)
val join_retries : int (* 4: join retries before the join counts as failed *)
val lookup_retries : int (* 3: lookup retries before the lookup fails *)
val stuck_wait_ms : float (* 5 ms: wait before re-probing a mid-join candidate *)
val stuck_wait_limit : int (* 3: such waits before the candidate is presumed dead *)
val pcache_refresh_ttl_ms : float (* 400 ms: cache entry age the refresh re-validates *)
val pcache_refresh_budget : int (* 4: refresh probes per router per sweep *)

val router_label : int -> Rofl_idspace.Id.t
(** The deterministic default identifier of router [i]. *)

(** {2 Plumbing} *)

val shd : t -> int -> shard_state
val now_at : t -> int -> float (* the clock of the router's calling context *)

val fresh_token : t -> int -> int
(** The router's next RPC token: [(count lsl 16) lor router]. *)

val sched : t -> rail:int -> at:int -> time_ms:float -> message -> unit
(** Queue a message for router [at] under the key [(time, rail, seq)];
    [rail] is the acting router.  Inlined down to the heap push, so the
    delivery time is never boxed. *)

val find_slot : t -> int -> Rofl_idspace.Id.t -> int (* at that router; -1: absent *)
val locate_slot : t -> Rofl_idspace.Id.t -> (shard_state * int) option

val adopt_staged :
  t -> shard_state -> int -> self:Rofl_idspace.Id.t -> succ:Rofl_idspace.Id.t -> unit
(** Normalise the staged successor-list candidates into the slot: drop
    [self] and [succ], dedup, sort by distance from [self], apply the
    enforced per-group quota (a router's own label is exempt), truncate. *)

val stage_columns :
  Store.t -> skip:Rofl_idspace.Id.t -> Rofl_idspace.Id.t array -> int array -> unit
(** Stage a message's successor columns in order, leaving out [skip]. *)

val send_direct :
  t -> cat:Rofl_netsim.Metrics.counter -> from:int -> dest:int -> message -> unit
(** Deliver a message after its shortest physical path, charging one
    message per link traversal under [cat]; dropped when unreachable. *)

val latency_between : t -> int -> int -> float
(** Link-state shortest-path latency between two routers (0 when equal or
    partitioned): a resolver's response leg from the owner. *)

val link_hops_between : t -> int -> int -> int
(** Link traversals of {!latency_between}'s path (0 when equal or
    partitioned). *)
