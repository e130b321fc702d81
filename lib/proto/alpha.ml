(* α-parallel register file over [Proto.lookup_owner_alpha_into], the one
   batched owner walk, and its only caller.  It persists registers across
   rounds — stage, run, read — and each staged lookup owns up to α
   branch-register slots, acquired from the file's freelist when [run]
   seeds the branches and released as branches win, die, or are cancelled.
   [slots_in_flight] must read 0 after every run: a cancellation path that
   strands a slot is a bug the test suite pins directly against this
   counter.

   The walk itself lives in [Proto] (it needs store internals); this layer
   owns the memory, the freelist discipline, and the duplicate-work ledger
   the α sweeps report. *)

module Id = Rofl_idspace.Id

type t = {
  proto : Proto.t;
  alpha : int;
  mutable cap : int;
  mutable n : int;
  (* per-lookup registers *)
  mutable from : int array;
  mutable targets : Id.t array;
  mutable found : bool array;
  mutable owner : Id.t array;
  mutable lk_done : Bytes.t;
  mutable br_count : int array;
  mutable owner_router : int array;
  mutable winner_branch : int array;
  mutable branches : int array;
  mutable ring_hops : int array;
  mutable wasted_hops : int array;
  mutable wasted_link : int array;
  mutable link_hops : int array;
  mutable latency_ms : float array;
  (* branch registers, cap * alpha flat *)
  mutable br_router : int array;
  mutable br_best : Id.t array;
  mutable br_best_valid : Bytes.t;
  mutable br_guard : int array;
  mutable br_hops : int array;
  mutable br_link_hops : int array;
  mutable br_latency_ms : float array;
  mutable br_live : Bytes.t;
  (* freelist + ledgers *)
  mutable in_flight : int;
  mutable last_cancellations : int;
  mutable total_cancellations : int;
  mutable total_wasted : int;
}

let create ?(hint = 16) ?(alpha = 1) proto =
  if alpha < 1 then invalid_arg "Alpha.create: alpha must be >= 1";
  let cap = max 1 hint in
  let ca = cap * alpha in
  {
    proto;
    alpha;
    cap;
    n = 0;
    from = Array.make cap 0;
    targets = Array.make cap Id.zero;
    found = Array.make cap false;
    owner = Array.make cap Id.zero;
    lk_done = Bytes.create cap;
    br_count = Array.make cap 0;
    owner_router = Array.make cap (-1);
    winner_branch = Array.make cap (-1);
    branches = Array.make cap 0;
    ring_hops = Array.make cap 0;
    wasted_hops = Array.make cap 0;
    wasted_link = Array.make cap 0;
    link_hops = Array.make cap 0;
    latency_ms = Array.make cap 0.0;
    br_router = Array.make ca 0;
    br_best = Array.make ca Id.zero;
    br_best_valid = Bytes.create ca;
    br_guard = Array.make ca 0;
    br_hops = Array.make ca 0;
    br_link_hops = Array.make ca 0;
    br_latency_ms = Array.make ca 0.0;
    br_live = Bytes.make ca '\000';
    in_flight = 0;
    last_cancellations = 0;
    total_cancellations = 0;
    total_wasted = 0;
  }

let grow t cap =
  let cap = max cap (2 * t.cap) in
  let ca = cap * t.alpha in
  let copy a dummy =
    let b = Array.make cap dummy in
    Array.blit a 0 b 0 t.cap;
    b
  in
  let copy_br a dummy =
    let b = Array.make ca dummy in
    Array.blit a 0 b 0 (t.cap * t.alpha);
    b
  in
  t.from <- copy t.from 0;
  t.targets <- copy t.targets Id.zero;
  t.found <- copy t.found false;
  t.owner <- copy t.owner Id.zero;
  (let b = Bytes.make cap '\000' in
   Bytes.blit t.lk_done 0 b 0 t.cap;
   t.lk_done <- b);
  t.br_count <- copy t.br_count 0;
  t.owner_router <- copy t.owner_router (-1);
  t.winner_branch <- copy t.winner_branch (-1);
  t.branches <- copy t.branches 0;
  t.ring_hops <- copy t.ring_hops 0;
  t.wasted_hops <- copy t.wasted_hops 0;
  t.wasted_link <- copy t.wasted_link 0;
  t.link_hops <- copy t.link_hops 0;
  t.latency_ms <- copy t.latency_ms 0.0;
  t.br_router <- copy_br t.br_router 0;
  t.br_best <- copy_br t.br_best Id.zero;
  (let b = Bytes.make ca '\000' in
   Bytes.blit t.br_best_valid 0 b 0 (t.cap * t.alpha);
   t.br_best_valid <- b);
  t.br_guard <- copy_br t.br_guard 0;
  t.br_hops <- copy_br t.br_hops 0;
  t.br_link_hops <- copy_br t.br_link_hops 0;
  t.br_latency_ms <- copy_br t.br_latency_ms 0.0;
  (let b = Bytes.make ca '\000' in
   Bytes.blit t.br_live 0 b 0 (t.cap * t.alpha);
   t.br_live <- b);
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

let run t =
  let stats =
    {
      Proto.al_owner_router = t.owner_router;
      al_winner_branch = t.winner_branch;
      al_branches = t.branches;
      al_ring_hops = t.ring_hops;
      al_wasted_hops = t.wasted_hops;
      al_link_hops = t.link_hops;
      al_latency_ms = t.latency_ms;
    }
  in
  let cancelled, released =
    Proto.lookup_owner_alpha_into t.proto ~n:t.n ~alpha:t.alpha ~from:t.from
      ~targets:t.targets ~found:t.found ~owner:t.owner ~lk_done:t.lk_done
      ~br_count:t.br_count ~br_router:t.br_router ~br_best:t.br_best
      ~br_best_valid:t.br_best_valid ~br_guard:t.br_guard ~br_hops:t.br_hops
      ~br_link_hops:t.br_link_hops ~br_latency_ms:t.br_latency_ms
      ~br_live:t.br_live ~stats
  in
  let acquired = ref 0 in
  for i = 0 to t.n - 1 do
    acquired := !acquired + t.br_count.(i)
  done;
  t.in_flight <- !acquired - released;
  t.last_cancellations <- cancelled;
  t.total_cancellations <- t.total_cancellations + cancelled;
  (* Settle the wasted-LINK ledger from the branch registers: the engine's
     [wasted_hops] counts ring hops; message accounting needs the link
     traversals the losers burned (same exclusion rule — the winner, or
     branch 0 when unresolved, is the answer's own cost). *)
  for i = 0 to t.n - 1 do
    t.total_wasted <- t.total_wasted + t.wasted_hops.(i);
    let base = i * t.alpha in
    let keep = if t.winner_branch.(i) >= 0 then t.winner_branch.(i) else 0 in
    let wl = ref 0 in
    for b = 0 to t.br_count.(i) - 1 do
      if b <> keep then wl := !wl + t.br_link_hops.(base + b)
    done;
    t.wasted_link.(i) <- !wl
  done

let check t i name =
  if i < 0 || i >= t.n then invalid_arg ("Alpha." ^ name ^ ": index out of batch")

let resolved t i =
  check t i "resolved";
  t.found.(i)

let owner_id t i =
  check t i "owner_id";
  if not t.found.(i) then invalid_arg "Alpha.owner_id: unresolved lookup";
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

let slots_in_flight t = t.in_flight

let cancellations t = t.last_cancellations

let total_cancellations t = t.total_cancellations

let total_wasted_hops t = t.total_wasted
