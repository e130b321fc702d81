module Id = Rofl_idspace.Id

(* Struct-of-arrays provider-record storage.

   The service layer keeps one record per placed (service, provider) copy:
   which router hosts it, who published it, when it expires.  Exactly like
   the proto resident store, every field is a column in a flat array and a
   record is one slot index — tens of bytes per record, no per-record
   boxing.  Records of one hosting router form a doubly-linked chain so
   per-node iteration (the doctor's residency sweep) does not scan the whole
   store, and records of one service form a second chain hanging off a
   Hashtbl sized from the caller's load hint, so a resolver read touches
   only that service's copies.

   Slots are recycled through a freelist threaded over [r_next].  A slot
   index is only stable while the record is alive; callers that park one
   across simulated time (the directory's intent -> placement pointers) must
   revalidate through [gen]. *)

type t = {
  mutable cap : int;
  mutable service : Id.t array;
  mutable provider : Id.t array;
  mutable origin : int array;      (* publishing router *)
  mutable owner : int array;       (* hosting router, -1 = free slot *)
  mutable expires_ms : float array;
  mutable version : int array;     (* bumped on every refresh *)
  mutable gen : int array;         (* bumped on every alloc: slot-handle epoch *)
  mutable r_next : int array;      (* router chain next, or freelist next when free *)
  mutable r_prev : int array;
  mutable s_next : int array;      (* service chain next *)
  mutable s_prev : int array;
  rhead : int array;               (* per-router chain head, -1 = empty *)
  shead : (Id.t, int) Hashtbl.t;   (* service -> chain head slot *)
  mutable free : int;
  mutable live : int;
}

let create ~routers ~hint () =
  if routers < 1 then invalid_arg "Provider_store.create: routers must be >= 1";
  let cap = max 16 hint in
  {
    cap;
    service = Array.make cap Id.zero;
    provider = Array.make cap Id.zero;
    origin = Array.make cap (-1);
    owner = Array.make cap (-1);
    expires_ms = Array.make cap 0.0;
    version = Array.make cap 0;
    gen = Array.make cap 0;
    r_next = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    r_prev = Array.make cap (-1);
    s_next = Array.make cap (-1);
    s_prev = Array.make cap (-1);
    rhead = Array.make routers (-1);
    shead = Hashtbl.create (max 16 (2 * hint));
    free = 0;
    live = 0;
  }

let live t = t.live

let capacity t = t.cap

let grow t =
  let old = t.cap in
  let cap = 2 * old in
  let extend_id a = Array.append a (Array.make old Id.zero) in
  let extend_int fill a = Array.append a (Array.make old fill) in
  t.service <- extend_id t.service;
  t.provider <- extend_id t.provider;
  t.origin <- extend_int (-1) t.origin;
  t.owner <- extend_int (-1) t.owner;
  t.expires_ms <- Array.append t.expires_ms (Array.make old 0.0);
  t.version <- extend_int 0 t.version;
  t.gen <- extend_int 0 t.gen;
  t.r_next <- Array.append t.r_next (Array.init old (fun i ->
      if old + i + 1 < cap then old + i + 1 else -1));
  t.r_prev <- extend_int (-1) t.r_prev;
  t.s_next <- extend_int (-1) t.s_next;
  t.s_prev <- extend_int (-1) t.s_prev;
  t.cap <- cap;
  t.free <- old

let find t ~service ~provider ~owner =
  let rec walk s =
    if s < 0 then -1
    else if t.owner.(s) = owner && Id.equal t.provider.(s) provider then s
    else walk t.s_next.(s)
  in
  match Hashtbl.find_opt t.shead service with
  | None -> -1
  | Some h ->
    (* every slot in the chain already matches [service] *)
    walk h

let alloc t ~service ~provider ~origin ~owner ~now ~ttl_ms =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.r_next.(s);
  t.service.(s) <- service;
  t.provider.(s) <- provider;
  t.origin.(s) <- origin;
  t.owner.(s) <- owner;
  t.expires_ms.(s) <- now +. ttl_ms;
  t.version.(s) <- 0;
  t.gen.(s) <- t.gen.(s) + 1;
  let rh = t.rhead.(owner) in
  t.r_next.(s) <- rh;
  t.r_prev.(s) <- -1;
  if rh >= 0 then t.r_prev.(rh) <- s;
  t.rhead.(owner) <- s;
  let sh = match Hashtbl.find_opt t.shead service with Some h -> h | None -> -1 in
  t.s_next.(s) <- sh;
  t.s_prev.(s) <- -1;
  if sh >= 0 then t.s_prev.(sh) <- s;
  Hashtbl.replace t.shead service s;
  t.live <- t.live + 1;
  s

let publish t ~service ~provider ~origin ~owner ~now ~ttl_ms =
  let s = find t ~service ~provider ~owner in
  if s >= 0 then begin
    t.origin.(s) <- origin;
    t.expires_ms.(s) <- now +. ttl_ms;
    t.version.(s) <- t.version.(s) + 1;
    `Refreshed s
  end
  else `Placed (alloc t ~service ~provider ~origin ~owner ~now ~ttl_ms)

let remove t s =
  let owner = t.owner.(s) in
  if owner < 0 then invalid_arg "Provider_store.remove: slot is already free";
  let nx = t.r_next.(s) and pv = t.r_prev.(s) in
  if pv >= 0 then t.r_next.(pv) <- nx else t.rhead.(owner) <- nx;
  if nx >= 0 then t.r_prev.(nx) <- pv;
  let snx = t.s_next.(s) and spv = t.s_prev.(s) in
  if spv >= 0 then t.s_next.(spv) <- snx
  else if snx >= 0 then Hashtbl.replace t.shead t.service.(s) snx
  else Hashtbl.remove t.shead t.service.(s);
  if snx >= 0 then t.s_prev.(snx) <- spv;
  t.owner.(s) <- -1;
  t.service.(s) <- Id.zero;
  t.provider.(s) <- Id.zero;
  t.origin.(s) <- -1;
  t.r_next.(s) <- t.free;
  t.r_prev.(s) <- -1;
  t.s_next.(s) <- -1;
  t.s_prev.(s) <- -1;
  t.free <- s;
  t.live <- t.live - 1

let expired t ~now s = t.expires_ms.(s) < now

let sweep t ~now =
  let dropped = ref 0 in
  for s = 0 to t.cap - 1 do
    if t.owner.(s) >= 0 && t.expires_ms.(s) < now then begin
      remove t s;
      incr dropped
    end
  done;
  !dropped

let service t s = t.service.(s)
let provider t s = t.provider.(s)
let origin t s = t.origin.(s)
let owner t s = t.owner.(s)
let expires_ms t s = t.expires_ms.(s)
let version t s = t.version.(s)
let gen t s = t.gen.(s)

let iter_service t service f =
  match Hashtbl.find_opt t.shead service with
  | None -> ()
  | Some h ->
    let s = ref h in
    while !s >= 0 do
      let nx = t.s_next.(!s) in
      f !s;
      s := nx
    done

let iter t f =
  for s = 0 to t.cap - 1 do
    if t.owner.(s) >= 0 then f s
  done

let service_records t service =
  let n = ref 0 in
  iter_service t service (fun _ -> incr n);
  !n

(* Distinct live providers recorded for [service] at hosting router [at],
   written into [buf] (which must be long enough — size it from
   {!service_records}).  Copies that expired before [now] are skipped even
   when a lazy sweep has not dropped them yet; duplicates (the same provider
   lingering at an old owner do not arise here since we filter by [at], but
   refresh races can leave two copies at one router) are collapsed with a
   linear scan over what is already written — provider fan-in per service is
   small by construction. *)
let providers_at_into t ~service ~at ~now buf =
  let n = ref 0 in
  iter_service t service (fun s ->
      if t.owner.(s) = at && not (expired t ~now s) then begin
        let p = t.provider.(s) in
        let dup = ref false in
        for k = 0 to !n - 1 do
          if Id.equal buf.(k) p then dup := true
        done;
        if not !dup then begin
          if !n >= Array.length buf then
            invalid_arg "Provider_store.providers_at_into: buffer too short";
          buf.(!n) <- p;
          incr n
        end
      end);
  !n
