(* α-parallel register file over [Proto.walk_owner], the α-branch owner
   walk.  It persists registers across rounds — stage, run, read — and
   [run] walks the staged lookups one after another through one set of
   branch registers.  The walk itself lives in [Proto] (it needs store
   internals); this layer owns the per-lookup result columns and the
   duplicate-work ledger the α sweeps report. *)

module Id = Rofl_idspace.Id

type t = {
  proto : Proto.t;
  walk : Proto.owner_walk;
  mutable cap : int;
  mutable n : int;
  mutable from : int array;
  mutable targets : Id.t array;
  mutable owner : Id.t array;
  mutable owner_router : int array;
  mutable winner_branch : int array;
  mutable branches : int array;
  mutable ring_hops : int array;
  mutable wasted_hops : int array;
  mutable wasted_link : int array;
  mutable link_hops : int array;
  mutable latency_ms : float array;
  mutable last_cancellations : int;
  mutable total_cancellations : int;
  mutable total_wasted : int;
}

let create ?(hint = 16) ?(alpha = 1) proto =
  let cap = max 1 hint in
  {
    proto;
    walk = Proto.owner_walk ~alpha;
    cap;
    n = 0;
    from = Array.make cap 0;
    targets = Array.make cap Id.zero;
    owner = Array.make cap Id.zero;
    owner_router = Array.make cap (-1);
    winner_branch = Array.make cap (-1);
    branches = Array.make cap 0;
    ring_hops = Array.make cap 0;
    wasted_hops = Array.make cap 0;
    wasted_link = Array.make cap 0;
    link_hops = Array.make cap 0;
    latency_ms = Array.make cap 0.0;
    last_cancellations = 0;
    total_cancellations = 0;
    total_wasted = 0;
  }

let grow t cap =
  let cap = max cap (2 * t.cap) in
  let copy a dummy =
    let b = Array.make cap dummy in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.from <- copy t.from 0;
  t.targets <- copy t.targets Id.zero;
  t.owner <- copy t.owner Id.zero;
  t.owner_router <- copy t.owner_router (-1);
  t.winner_branch <- copy t.winner_branch (-1);
  t.branches <- copy t.branches 0;
  t.ring_hops <- copy t.ring_hops 0;
  t.wasted_hops <- copy t.wasted_hops 0;
  t.wasted_link <- copy t.wasted_link 0;
  t.link_hops <- copy t.link_hops 0;
  t.latency_ms <- copy t.latency_ms 0.0;
  t.cap <- cap

let clear t = t.n <- 0

let stage t ~from ~target =
  if t.n >= t.cap then grow t (t.n + 1);
  let i = t.n in
  t.from.(i) <- from;
  t.targets.(i) <- target;
  t.n <- i + 1;
  i

let length t = t.n

(* The lookup pays for its charged branch — the winner, or branch 0 when
   unresolved (what the α=1 walk would have done); every other branch's
   ring hops and link traversals are duplicate work. *)
let run t =
  let w = t.walk in
  t.last_cancellations <- 0;
  for i = 0 to t.n - 1 do
    Proto.walk_owner t.proto w ~from:t.from.(i) ~target:t.targets.(i);
    let win = w.Proto.w_winner in
    let charged = max win 0 in
    t.owner.(i) <- w.w_owner;
    t.owner_router.(i) <- (if win >= 0 then w.w_router.(win) else -1);
    t.winner_branch.(i) <- win;
    t.branches.(i) <- w.w_branches;
    t.ring_hops.(i) <- w.w_hops.(charged);
    t.link_hops.(i) <- w.w_link_hops.(charged);
    t.latency_ms.(i) <- w.w_latency_ms.(charged);
    let wasted = ref 0 and wasted_link = ref 0 in
    for b = 0 to w.w_branches - 1 do
      if b <> charged then begin
        wasted := !wasted + w.w_hops.(b);
        wasted_link := !wasted_link + w.w_link_hops.(b)
      end
    done;
    t.wasted_hops.(i) <- !wasted;
    t.wasted_link.(i) <- !wasted_link;
    t.total_wasted <- t.total_wasted + !wasted;
    t.last_cancellations <- t.last_cancellations + w.w_cancelled
  done;
  t.total_cancellations <- t.total_cancellations + t.last_cancellations

let check t i name =
  if i < 0 || i >= t.n then invalid_arg ("Alpha." ^ name ^ ": index out of batch")

let resolved t i =
  check t i "resolved";
  t.winner_branch.(i) >= 0

let owner_id t i =
  check t i "owner_id";
  if t.winner_branch.(i) < 0 then invalid_arg "Alpha.owner_id: unresolved lookup";
  t.owner.(i)

let owner_router t i =
  check t i "owner_router";
  t.owner_router.(i)

let winner_branch t i =
  check t i "winner_branch";
  t.winner_branch.(i)

let branches t i =
  check t i "branches";
  t.branches.(i)

let ring_hops t i =
  check t i "ring_hops";
  t.ring_hops.(i)

let wasted_hops t i =
  check t i "wasted_hops";
  t.wasted_hops.(i)

let wasted_link_hops t i =
  check t i "wasted_link_hops";
  t.wasted_link.(i)

let link_hops t i =
  check t i "link_hops";
  t.link_hops.(i)

let latency_ms t i =
  check t i "latency_ms";
  t.latency_ms.(i)

let cancellations t = t.last_cancellations

let total_cancellations t = t.total_cancellations

let total_wasted_hops t = t.total_wasted
