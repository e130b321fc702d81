(** The data the actor engine's modules share.  Types only, so no
    interface: it would repeat every line.  Each mechanism module owns the
    rules that read and write its fields. *)

module Id = Rofl_idspace.Id

(** Per-router conduct policy for the attack lab.  Honest routers run the
    protocol; the rest model the paper's threat surface.  Behaviours only
    change what a router {e says} in its own execution context, so
    campaigns stay byte-identical at any shard count. *)
type behaviour =
  | Honest
  | Drop_lookups  (** byzantine silence: swallow every lookup it handles *)
  | Misroute      (** answer lookups with its own best resident as "owner" *)
  | Poison_succs  (** prepend fabricated backups to stabilisation replies,
                      and vouch for those ghosts when they are probed *)

type config = {
  stabilize_period_ms : float; (** period of the stabiliser's rounds *)
  join_timeout_ms : float;     (** base timeout of a join attempt *)
  lookup_timeout_ms : float;   (** base timeout of a lookup attempt *)
  untwist : bool;
  (** enable the succ-list-inversion "untwist" repair for loopy rings.  On by
      default; turning it off deliberately reintroduces Chord's loopy-network
      problem, which the ring doctor's audits are built to catch. *)
  lookup_alpha : int;
  (** concurrent greedy-walk branches per lookup attempt: branch 0 is the
      classic origin walk, extra branches start at diversified routers
      ({!Chase.branch_starts_into}) and the first success wins — losers are
      cancelled at the origin and their hops charged to the duplicate-work
      ledger.  1 (the default) is byte-identical to the pre-α engine;
      {!Proto.create} rejects values below 1. *)
  pcache_capacity : int;
  (** per-router pointer-cache entries (owner pointers learned from lookup
      responses), 0 (the default) disables the cache entirely. *)
  stabilize_auto : bool;
  (** derive the per-resident probe period and successor-list length from
      the protocol's own network-size estimate ({!Tune.estimate_n}) and
      observed churn rate instead of [stabilize_period_ms] and
      {!State.succ_list_len}; false (the default) keeps the static
      behaviour byte-identical. *)
  verify_joins : bool;
  (** challenge/response identifier verification at the join gateway and on
      successor-list failover promotion (paper §2.1 self-certifying labels).
      On by default; the off position exists for the attack lab's
      defense-off cells and for measuring verification cost. *)
  succ_quota : int;
  (** declared per-PoP share of {e admitted} (joined) entries in a
      successor-list backup tail (and of pointer-cache admissions).
      Infrastructure entries — a router's own label hosted at itself — are
      exempt: their ring placement is the operator's topology, not an
      admission an attacker can mint.  0 = no quota rule.  The rule is what
      the doctor's eclipse-saturation check audits; whether the protocol
      also {e enforces} it is [quota_enforce]. *)
  quota_enforce : bool;
  (** enforce [succ_quota] at every successor-list adoption and
      pointer-cache admission (the Kademlia IP-group-quota defense, keyed
      by PoP).  Meaningless unless [succ_quota > 0] and the instance was
      created with router [groups]. *)
}

(** A protocol message for the router named by the queue entry's int, or
    one of its timers; one flat block.  A pointer travels as an identifier
    and its router ([-1]: none), a successor group as identifier and router
    columns, nearest first.  [avoid] is [[]] unless a request found a
    candidate dead.  A token names its router ({!State.fresh_token}). *)
type message =
  | Join_req of {
      joining : Id.t;
      gateway : int;
      chasing_id : Id.t;        (** the candidate this request is committed to *)
      chasing_router : int;     (** its router; -1 until the first commitment *)
      avoid : Id.t list;        (** candidates found dead by this request *)
      waited : int;             (** consecutive waits for a mid-join candidate *)
    }
  | Join_resp of {
      joining : Id.t;
      pred_id : Id.t;
      pred_router : int;
      succ_id : Id.t;
      succ_router : int;
      list_ids : Id.t array;    (** the predecessor's backups before the splice *)
      list_routers : int array;
    }
  | Get_pred of { asker : Id.t; asker_router : int; target : Id.t; token : int }
  | Pred_info of {
      of_id : Id.t;
      pred_id : Id.t;
      pred_router : int;
      list_ids : Id.t array;    (** the probed member's succ, then its backups *)
      list_routers : int array;
      to_id : Id.t;
      token : int;
    }
  | Notify of { candidate : Id.t; candidate_router : int; target : Id.t }
  | Leave_pred of {
      departing : Id.t;
      to_id : Id.t;
      new_succ_id : Id.t;
      new_succ_router : int;
      list_ids : Id.t array;
      list_routers : int array;
    }
  | Leave_succ of { departing : Id.t; to_id : Id.t; new_pred_id : Id.t; new_pred_router : int }
  | Lookup_req of {
      target : Id.t;
      origin : int;
      token : int;
      chasing_id : Id.t;
      chasing_router : int;
      avoid : Id.t list;
      waited : int;
      hops : int; (** link traversals charged to this branch so far *)
    }
  | Lookup_resp of { token : int; owner_id : Id.t; owner_router : int; hops : int }
  | Verify_req of {
      claimant : Id.t;        (** identifier whose residency is challenged *)
      asker_router : int;
      token : int;
      challenge : Rofl_crypto.Identity.challenge;
    }
  | Verify_resp of { token : int; resp : Rofl_crypto.Identity.response option }
  | Probe_timeout of { rid : Id.t; sid : Id.t; srouter : int; token : int; attempt : int }
  (** A stabilisation probe's RPC timeout: the common timer, its state as
      data.  Rarer timers (join and lookup timeouts, lookup retries,
      promotion challenges) keep a closure. *)
  | Timer of (unit -> unit)

type lookup_outcome = {
  target : Id.t;
  issued_ms : float;
  completed_ms : float;
  ok : bool;      (** the exact target identifier was found alive *)
  attempts : int;
}

type join_state = { gateway : int; mutable join_attempts : int; mutable completed : bool }

type lookup_state = {
  origin : int;
  lk_target : Id.t;
  lk_issued : float;
  mutable lk_attempts : int;
  mutable lk_token : int;       (** primary-branch token of the current attempt *)
  mutable lk_tokens : int list; (** all branch tokens of the current attempt *)
  mutable lk_outstanding : int; (** branches not yet answered this attempt *)
  mutable finished : bool;
  cb : lookup_outcome -> unit;
}

(** An in-flight failover-promotion verification: the challenged candidate,
    the challenge sent, and the continuation to run on the verdict. *)
type verify_state = {
  v_claimed : Id.t;
  v_challenge : Rofl_crypto.Identity.challenge;
  mutable v_done : bool;
  v_k : bool -> unit;
}

(** The stale-successor oracle's data ({!Oracle} owns its rules): facts a
    shard logs as they happen, and the mirror of the ring they replay into. *)
type oev =
  | O_join of float * Id.t
  | O_repoint of float * Id.t * Id.t option (** holder, new successor id *)
  | O_raw of float * Id.t * Id.t option     (** injected fault: never closes *)

type rstate = {
  mutable o_mem : bool;
  mutable o_succ : Id.t option;
  mutable o_pointed : Id.t list; (** holders whose successor pointer is this id *)
  mutable o_ever : bool;
  (** ever admitted (bootstrap or an accepted join), set at admission, not
      via the logs: an in-flight join must already count, or the doctor's
      poison-residency check would flag it. *)
}

type oracle = {
  ostates : (Id.t, rstate) Hashtbl.t;
  omarks : (Id.t, float) Hashtbl.t; (** holder -> stale since *)
  mutable owindows : float list;    (** closed durations, newest first *)
  mutable departs : (float * Id.t) list; (** departures, newest first *)
}

(* Protocol tables hashed without [caml_hash] on identifiers and without
   polymorphic compare on either key. *)
module Idtbl = Hashtbl.Make (struct type t = Id.t let equal = Id.equal let hash = Id.hash end)

module Inttbl = Hashtbl.Make (Int)

(** Everything a shard's events touch.  Counters are sums of per-event
    increments, so their merge is partition-independent.  RPC tables are
    keyed by router-named tokens, [joins] by identifier: a join response
    completes only the join whose gateway received it, else the shard count
    would decide whether a stale one completes a moved identifier's join. *)
type shard_state = {
  store : Store.t;
  where : int Idtbl.t; (** id -> slot, for residents of this shard *)
  s_ls : Rofl_linkstate.Linkstate.t;
  s_latency : float array; (** [send_direct]'s pricing register *)
  s_metrics : Rofl_netsim.Metrics.t;
  probes : unit Inttbl.t; (** outstanding stabilisation RPC tokens *)
  joins : (Id.t, join_state) Hashtbl.t;
  lookups : lookup_state Inttbl.t;
  verifies : verify_state Inttbl.t;
  mutable olog : oev list; (** oracle events, newest first *)
  mutable lookups_open : int;
  mutable ranked : Id.t; (** {!Chase.rank}'s result register *)
  mutable ranked_d : int; (** [ranked]'s clockwise key distance to the target *)
}

type t = {
  graph : Rofl_topology.Graph.t;
  cfg : config;
  coord : message Rofl_netsim.Shard.t;
  shard_of : int array; (** router -> shard, contiguous ranges *)
  rails : int array;
  (** Per-router monotone sequence counters: every scheduled event is keyed
      by (time, acting router, seq), so the merged execution order is a
      function of the workload alone, not of the shard count. *)
  tokens : int array; (** per-router RPC counters ({!State.fresh_token}) *)
  sh : shard_state array;
  pool : Rofl_util.Pool.t option;
  oracle : oracle;
  pcaches : Pcache.t array; (** per router; [[||]] when the cache is disabled *)
  behaviours : behaviour array; (** per router; mutate from global context only *)
  groups : int array; (** router -> PoP/AS group for quotas; [[||]] = ungrouped *)
  tainted : (Id.t, unit) Hashtbl.t;
  (** Admitted with a claim that failed verification ([verify_joins] off):
      the forged-admission audit's ground truth.  Written at admission. *)
  creds : (Id.t, Rofl_crypto.Identity.keypair) Hashtbl.t;
  (** Credential presented at admission, for promotion challenges (bootstrap
      labels use the canonical one).  Written at admission. *)
  mutable stab_on : bool;
  mutable rounds : int;
  mutable leaves_done : int;
  mutable moves_done : int;
  mutable crashes_done : int;
  mutable auto_nhat : float;     (** median per-resident N estimate ({!Tune}) *)
  mutable auto_rate : float;     (** EWMA deaths per member per ms *)
  mutable auto_mult : float;     (** period multiplier, 1..16 *)
  mutable auto_sl_limit : int;   (** successor-list backup target *)
  mutable auto_last_deaths : int;
  mutable auto_last_ms : float;
  mutable auto_rounds : int;
  mutable refresh_on : bool;
}
