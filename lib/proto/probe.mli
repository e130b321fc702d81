(** Stabilisation probes of a resident's successor, with timeout, retry and
    backoff; Chord successor-list failover when every retry times out; and
    the promotion check that challenges each failover candidate at its
    claimed router before the pointer moves ({!Types.config.verify_joins}). *)

open Types

val send :
  t -> router:int -> Rofl_idspace.Id.t -> sid:Rofl_idspace.Id.t -> srouter:int -> int -> unit
(** [send t ~router rid ~sid ~srouter attempt]: probe [rid]'s successor
    [sid] at [srouter] ([Get_pred]) and arm the attempt's timeout. *)

val on_timeout :
  t -> router:int -> Rofl_idspace.Id.t -> sid:Rofl_idspace.Id.t -> srouter:int -> token:int ->
  int -> unit
(** Unless the probe was answered or its pointer moved on: retry, or fail
    over to the first backup that passes the promotion check (the router's
    own label when none does). *)

val verify_req :
  t -> at:int -> claimant:Rofl_idspace.Id.t -> asker_router:int -> token:int ->
  Rofl_crypto.Identity.challenge -> unit
(** Answer a promotion challenge for [claimant] at router [at]. *)

val verify_resp : t -> at:int -> token:int -> Rofl_crypto.Identity.response option -> unit
(** A challenge's answer at the asker: run the promotion continuation. *)
