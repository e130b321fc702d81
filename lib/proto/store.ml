module Id = Rofl_idspace.Id

(* Struct-of-arrays resident storage.

   The protocol engine keeps one record per resident identifier: ring
   pointers, a bounded successor list, liveness bookkeeping.  As pointer-
   linked records (the seed's [resident] list per node) a million residents
   cost hundreds of bytes each in boxes and list spines; here every field is
   a column in a flat array and a resident is one slot index — tens of
   bytes, no per-resident boxing, and the GC scans a handful of arrays
   instead of millions of records.

   Slots are recycled through a freelist threaded over [next].  Residents of
   one router form a doubly-linked chain (newest first, matching the seed's
   cons-onto-residents order) so per-router iteration does not scan the
   whole store.  A slot index is only stable while the resident is alive:
   callers that park a slot across simulated time (timeout closures) must
   re-resolve identifier -> slot when they fire. *)

type t = {
  dummy : Id.t;               (* filler for vacant Id cells *)
  cap_list : int;             (* max successor-list entries per resident *)
  mutable cap : int;
  mutable rid : Id.t array;
  mutable rkey : int array;        (* [Id.key] of [rid] *)
  mutable succ_id : Id.t array;
  mutable succ_key : int array;    (* [Id.key] of [succ_id] *)
  mutable succ_router : int array; (* -1 = no successor *)
  mutable pred_id : Id.t array;
  mutable pred_router : int array; (* -1 = no predecessor *)
  mutable pred_heard : float array;
  mutable probe_inflight : Bytes.t;
  mutable sl_id : Id.t array;      (* cap * cap_list, flat *)
  mutable sl_router : int array;
  mutable sl_len : int array;
  mutable due : float array;       (* next stabilisation due time (auto mode) *)
  mutable next : int array;        (* chain next, or freelist next when free *)
  mutable prev : int array;        (* chain prev, -1 at head *)
  mutable owner : int array;       (* hosting router, -1 = free slot *)
  head : int array;                (* per-router chain head, -1 = empty *)
  mutable free : int;              (* freelist head, -1 = exhausted *)
  mutable st_id : Id.t array;      (* the staging run of [normalize] *)
  mutable st_router : int array;
  mutable st_pos : int array;
  mutable st_len : int;
}

let create ~routers ~cap_list ~hint ~dummy =
  if routers < 1 then invalid_arg "Store.create: routers must be >= 1";
  if cap_list < 0 then invalid_arg "Store.create: cap_list must be >= 0";
  let cap = max 16 hint in
  let t =
    {
      dummy;
      cap_list;
      cap;
      rid = Array.make cap dummy;
      rkey = Array.make cap 0;
      succ_id = Array.make cap dummy;
      succ_key = Array.make cap 0;
      succ_router = Array.make cap (-1);
      pred_id = Array.make cap dummy;
      pred_router = Array.make cap (-1);
      pred_heard = Array.make cap 0.0;
      probe_inflight = Bytes.make cap '\000';
      sl_id = Array.make (cap * cap_list) dummy;
      sl_router = Array.make (cap * cap_list) (-1);
      sl_len = Array.make cap 0;
      due = Array.make cap 0.0;
      next = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
      prev = Array.make cap (-1);
      owner = Array.make cap (-1);
      head = Array.make routers (-1);
      free = 0;
      st_id = Array.make 8 dummy;
      st_router = Array.make 8 0;
      st_pos = Array.make 8 0;
      st_len = 0;
    }
  in
  t

let cap_list t = t.cap_list

let grow t =
  let old = t.cap in
  let cap = 2 * old in
  let extend_id a = Array.append a (Array.make old t.dummy) in
  let extend_int fill a = Array.append a (Array.make old fill) in
  t.rid <- extend_id t.rid;
  t.rkey <- extend_int 0 t.rkey;
  t.succ_id <- extend_id t.succ_id;
  t.succ_key <- extend_int 0 t.succ_key;
  t.succ_router <- extend_int (-1) t.succ_router;
  t.pred_id <- extend_id t.pred_id;
  t.pred_router <- extend_int (-1) t.pred_router;
  t.pred_heard <- Array.append t.pred_heard (Array.make old 0.0);
  (let b = Bytes.make cap '\000' in
   Bytes.blit t.probe_inflight 0 b 0 old;
   t.probe_inflight <- b);
  t.sl_id <- Array.append t.sl_id (Array.make (old * t.cap_list) t.dummy);
  t.sl_router <- Array.append t.sl_router (Array.make (old * t.cap_list) (-1));
  t.sl_len <- extend_int 0 t.sl_len;
  t.due <- Array.append t.due (Array.make old 0.0);
  t.next <- Array.append t.next (Array.init old (fun i ->
      if old + i + 1 < cap then old + i + 1 else -1));
  t.prev <- extend_int (-1) t.prev;
  t.owner <- extend_int (-1) t.owner;
  t.cap <- cap;
  t.free <- old

let alloc t ~router rid =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  t.owner.(s) <- router;
  t.rid.(s) <- rid;
  t.rkey.(s) <- Id.key rid;
  t.succ_id.(s) <- t.dummy;
  t.succ_router.(s) <- -1;
  t.pred_id.(s) <- t.dummy;
  t.pred_router.(s) <- -1;
  t.pred_heard.(s) <- 0.0;
  Bytes.unsafe_set t.probe_inflight s '\000';
  t.sl_len.(s) <- 0;
  t.due.(s) <- 0.0;
  (* Prepend to the router chain: iteration order matches the seed's
     cons-onto-residents (newest first). *)
  let h = t.head.(router) in
  t.next.(s) <- h;
  t.prev.(s) <- -1;
  if h >= 0 then t.prev.(h) <- s;
  t.head.(router) <- s;
  s

let release t s =
  let router = t.owner.(s) in
  if router < 0 then invalid_arg "Store.release: slot is already free";
  let nx = t.next.(s) and pv = t.prev.(s) in
  if pv >= 0 then t.next.(pv) <- nx else t.head.(router) <- nx;
  if nx >= 0 then t.prev.(nx) <- pv;
  t.owner.(s) <- -1;
  t.rid.(s) <- t.dummy;
  t.succ_id.(s) <- t.dummy;
  t.pred_id.(s) <- t.dummy;
  (let base = s * t.cap_list in
   for k = 0 to t.cap_list - 1 do
     t.sl_id.(base + k) <- t.dummy
   done);
  t.sl_len.(s) <- 0;
  t.next.(s) <- t.free;
  t.prev.(s) <- -1;
  t.free <- s

let iter_router t router f =
  let s = ref t.head.(router) in
  while !s >= 0 do
    let nx = t.next.(!s) in
    f !s;
    s := nx
  done

let chain_head t router = t.head.(router)

let chain_next t s = t.next.(s)

let owner t s = t.owner.(s)

let[@inline] rid t s = t.rid.(s)

let rkey t s = t.rkey.(s)

let succ t s =
  let r = t.succ_router.(s) in
  if r < 0 then None else Some (t.succ_id.(s), r)

let[@inline] succ_rid t s = t.succ_id.(s)

let succ_key t s = t.succ_key.(s)

let succ_router t s = t.succ_router.(s)

let set_succ t s = function
  | None ->
    t.succ_id.(s) <- t.dummy;
    t.succ_router.(s) <- -1
  | Some (id, r) ->
    t.succ_id.(s) <- id;
    t.succ_key.(s) <- Id.key id;
    t.succ_router.(s) <- r

let pred t s =
  let r = t.pred_router.(s) in
  if r < 0 then None else Some (t.pred_id.(s), r)

let pred_rid t s = t.pred_id.(s)

let pred_router_raw t s = t.pred_router.(s)

let set_pred t s = function
  | None ->
    t.pred_id.(s) <- t.dummy;
    t.pred_router.(s) <- -1
  | Some (id, r) ->
    t.pred_id.(s) <- id;
    t.pred_router.(s) <- r

let pred_heard t s = t.pred_heard.(s)

let set_pred_heard t s v = t.pred_heard.(s) <- v

let probe_inflight t s = Bytes.unsafe_get t.probe_inflight s <> '\000'

let set_probe_inflight t s v =
  Bytes.unsafe_set t.probe_inflight s (if v then '\001' else '\000')

let due t s = t.due.(s)

let set_due t s v = t.due.(s) <- v

let succ_list t s =
  let base = s * t.cap_list in
  let rec go k =
    if k >= t.sl_len.(s) then []
    else (t.sl_id.(base + k), t.sl_router.(base + k)) :: go (k + 1)
  in
  go 0

let succ_list_len t s = t.sl_len.(s)

let succ_list_id t s k = t.sl_id.((s * t.cap_list) + k)

let succ_list_router t s k = t.sl_router.((s * t.cap_list) + k)

let blit_succ_list t s ids routers pos =
  let base = s * t.cap_list in
  for k = 0 to t.sl_len.(s) - 1 do
    ids.(pos + k) <- t.sl_id.(base + k);
    routers.(pos + k) <- t.sl_router.(base + k)
  done

let set_succ_list t s entries =
  let base = s * t.cap_list in
  let rec go k = function
    | (id, r) :: rest when k < t.cap_list ->
      t.sl_id.(base + k) <- id;
      t.sl_router.(base + k) <- r;
      go (k + 1) rest
    | _ -> t.sl_len.(s) <- k
  in
  go 0 entries

(* ---- the normaliser (see the interface) ---------------------------------- *)

let stage t id router =
  let n = t.st_len in
  if n = Array.length t.st_id then begin
    t.st_id <- Array.append t.st_id t.st_id;
    t.st_router <- Array.append t.st_router t.st_router;
    t.st_pos <- Array.append t.st_pos t.st_pos
  end;
  t.st_id.(n) <- id;
  t.st_router.(n) <- router;
  t.st_len <- n + 1

let stage_backups t s =
  for k = 0 to t.sl_len.(s) - 1 do
    stage t (succ_list_id t s k) (succ_list_router t s k)
  done

(* [List.sort_uniq] splits a list of [n >= 4] into halves of [n/2] and
   [n - n/2] down to runs of two or three, and keeps the earlier of two
   equal entries — except the first two of a run of three, where the
   second survives.  Does such a run start at position [p]? *)
let rec starts_triple n p =
  if n <= 3 then n = 3 && p = 0
  else if p < n / 2 then starts_triple (n / 2) p
  else starts_triple (n - (n / 2)) (p - (n / 2))

let normalize t s ~self ~succ ~limit ~quota ~groups ~exempt =
  let ids = t.st_id and routers = t.st_router and pos = t.st_pos in
  let n = ref 0 in
  for i = 0 to t.st_len - 1 do
    if not (Id.equal ids.(i) self || Id.equal ids.(i) succ) then begin
      ids.(!n) <- ids.(i);
      routers.(!n) <- routers.(i);
      incr n
    end
  done;
  let n = !n and m = ref 0 in
  t.st_len <- 0;
  (* Insertion sort into [0, m), behind the read position; [pos] keeps each
     survivor's position. *)
  for i = 0 to n - 1 do
    let id = ids.(i) and r = routers.(i) in
    let j = ref !m in
    while !j > 0 && Id.compare_dist self id self ids.(!j - 1) < 0 do decr j done;
    let j = !j in
    if j > 0 && Id.equal ids.(j - 1) id then begin
      if i = pos.(j - 1) + 1 && starts_triple n pos.(j - 1) then begin
        routers.(j - 1) <- r;
        pos.(j - 1) <- i
      end
    end
    else begin
      Array.blit ids j ids (j + 1) (!m - j);
      Array.blit routers j routers (j + 1) (!m - j);
      Array.blit pos j pos (j + 1) (!m - j);
      ids.(j) <- id;
      routers.(j) <- r;
      pos.(j) <- i;
      incr m
    end
  done;
  (* Quota, then truncation, into the slot; [pos] now holds the group each
     kept entry counts against ([min_int]: exempt). *)
  let limit = min limit t.cap_list and base = s * t.cap_list in
  let k = ref 0 and i = ref 0 in
  while !k < limit && !i < !m do
    let id = ids.(!i) and r = routers.(!i) in
    let counted = quota > 0 && Array.length groups > 0 && not (exempt id r) in
    let g = if counted then groups.(r) else min_int in
    let used = ref 0 in
    for j = 0 to !k - 1 do
      if pos.(j) = g then incr used
    done;
    if (not counted) || !used < quota then begin
      t.sl_id.(base + !k) <- id;
      t.sl_router.(base + !k) <- r;
      pos.(!k) <- g;
      incr k
    end;
    incr i
  done;
  t.sl_len.(s) <- !k
