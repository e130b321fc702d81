module Id = Rofl_idspace.Id
module Graph = Rofl_topology.Graph
module Linkstate = Rofl_linkstate.Linkstate
open Types
open State
open Chase

let lookup_owner t ~from target =
  let guard_max = 4 * Graph.n t.graph in
  let router = ref from and best = ref target and best_d = ref (-1) in
  let hops = ref 0 and step = ref from in
  while !step >= 0 do
    let sh = shd t !router in
    step :=
      if !hops > guard_max then owner_dead
      else owner_step sh ~router:!router ~target ~best_d:!best_d ~best:!best;
    if !step >= 0 then begin
      router := !step;
      best := sh.ranked;
      best_d := sh.ranked_d;
      incr hops
    end
  done;
  if !step = owner_found then Some (shd t !router).ranked else None

(* The α-branch owner walk ({!walk_owner} in the interface).  The pricing
   only warms memoised shortest-path trees, so a lookup's result depends on
   the tables alone, never on the lookups walked before it. *)

type owner_walk = {
  w_alpha : int;
  mutable w_owner : Id.t;
  mutable w_winner : int;
  mutable w_branches : int;
  mutable w_cancelled : int;
  mutable w_wasted_hops : int;
  mutable w_wasted_link_hops : int;
  w_router : int array;
  w_hops : int array;
  w_link_hops : int array;
  w_latency_ms : float array;
  w_best : Id.t array;
  w_best_d : int array;
  w_live : Bytes.t;
}

let owner_walk ~alpha =
  if alpha < 1 then invalid_arg "Owner.owner_walk: alpha must be >= 1";
  {
    w_alpha = alpha; w_owner = Id.zero; w_winner = -1; w_branches = 0; w_cancelled = 0;
    w_wasted_hops = 0; w_wasted_link_hops = 0;
    w_router = Array.make alpha 0;
    w_hops = Array.make alpha 0;
    w_link_hops = Array.make alpha 0;
    w_latency_ms = Array.make alpha 0.0;
    w_best = Array.make alpha Id.zero;
    w_best_d = Array.make alpha (-1);
    w_live = Bytes.make alpha '\000';
  }

let charged w = if w.w_winner >= 0 then w.w_winner else 0

(* One hop of branch [b]; [false] once the branch is done, with a verdict
   in [w_owner]/[w_winner] or dead. *)
let step_branch t w ~target ~guard_max b =
  w.w_hops.(b) <= guard_max
  &&
  let r = w.w_router.(b) in
  let sh = shd t r in
  let next = owner_step sh ~router:r ~target ~best_d:w.w_best_d.(b) ~best:w.w_best.(b) in
  if next >= 0 then begin
    let h = Linkstate.price_hop_into sh.s_ls r next ~latency:w.w_latency_ms b in
    if h >= 0 then w.w_link_hops.(b) <- w.w_link_hops.(b) + h;
    w.w_hops.(b) <- w.w_hops.(b) + 1;
    w.w_router.(b) <- next;
    w.w_best.(b) <- sh.ranked;
    w.w_best_d.(b) <- sh.ranked_d;
    true
  end
  else begin
    if next = owner_found then begin
      w.w_owner <- sh.ranked;
      w.w_winner <- b
    end;
    false
  end

let walk_owner t w ~from ~target =
  w.w_router.(0) <- from;
  let extra =
    branch_starts_into t ~from ~target ~out:w.w_router ~pos:1 ~max_extra:(w.w_alpha - 1)
  in
  for b = 0 to extra do
    w.w_hops.(b) <- 0;
    w.w_link_hops.(b) <- 0;
    w.w_latency_ms.(b) <- 0.0;
    w.w_best_d.(b) <- -1;
    Bytes.unsafe_set w.w_live b '\001'
  done;
  w.w_winner <- -1;
  w.w_branches <- extra + 1;
  w.w_cancelled <- 0;
  let guard_max = 4 * Graph.n t.graph in
  let live = ref (extra + 1) in
  while !live > 0 do
    let b = ref 0 in
    while !b <= extra && !live > 0 do
      if
        Bytes.unsafe_get w.w_live !b <> '\000'
        && not (step_branch t w ~target ~guard_max !b)
      then begin
        Bytes.unsafe_set w.w_live !b '\000';
        decr live;
        if w.w_winner >= 0 then begin
          w.w_cancelled <- !live;
          live := 0
        end
      end;
      incr b
    done
  done;
  let charged = charged w in
  w.w_wasted_hops <- 0;
  w.w_wasted_link_hops <- 0;
  for b = 0 to extra do
    if b <> charged then begin
      w.w_wasted_hops <- w.w_wasted_hops + w.w_hops.(b);
      w.w_wasted_link_hops <- w.w_wasted_link_hops + w.w_link_hops.(b)
    end
  done
