module Id = Rofl_idspace.Id
module Lru = Rofl_util.Lru

(* The LRU owns recency and eviction; [order] is a ring-ordered index over
   the same bindings, mutated in place.  Each index entry is [entry_bytes]
   of a [Bytes.t] -- the destination's [Id.key] and the slot holding its
   pointer -- sorted by identifier ([Id.key], then [Id.compare] on key
   ties).  Bytes are never scanned by the GC and inserting or removing an
   entry is one [memmove]; the boxed pointers stay put in [slots], so no
   insert pays a write barrier per shifted element.  A persistent [Ring]
   index would copy a chunk per insert, and the copy, living as long as the
   cache, would be promoted and later swept. *)
type t = {
  lru : (Id.t, Pointer.t) Lru.t;
  mutable order : Bytes.t;
  mutable n : int;  (* entries in [order] *)
  mutable slots : Pointer.t array;  (* payloads; free slots hold the placeholder *)
  mutable free : int array;  (* stack of free slot numbers *)
  mutable n_free : int;
}

let entry_bytes = 16

let create ~capacity =
  {
    lru = Lru.create ~capacity;
    order = Bytes.empty;
    n = 0;
    slots = [||];
    free = [||];
    n_free = 0;
  }

let capacity c = Lru.capacity c.lru

let length c = Lru.length c.lru

let[@inline] key_at c i = Int64.to_int (Bytes.get_int64_ne c.order (i * entry_bytes))

let[@inline] slot_at c i = Int64.to_int (Bytes.get_int64_ne c.order ((i * entry_bytes) + 8))

let[@inline] set_entry c i key slot =
  Bytes.set_int64_ne c.order (i * entry_bytes) (Int64.of_int key);
  Bytes.set_int64_ne c.order ((i * entry_bytes) + 8) (Int64.of_int slot)

let[@inline] ptr_at c i = Array.unsafe_get c.slots (slot_at c i)

(* First index position whose identifier is >= [id] in linear order ([n]
   if none).  Keys decide unless they tie; ties fall back to the full
   128-bit compare. *)
let rec search c id k lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    let km = key_at c mid in
    if km < k || (km = k && Id.compare (ptr_at c mid).Pointer.dst id < 0) then
      search c id k (mid + 1) hi
    else search c id k lo mid
  end

let lower_bound c id = search c id (Id.key id) 0 c.n

let[@inline] holds c i id = i < c.n && Id.equal (ptr_at c i).Pointer.dst id

(* Grow the slot table (and its free stack) to at least one free slot;
   growth doubles, so a cache reaches its fill in O(log capacity) copies. *)
let take_slot c =
  if c.n_free = 0 then begin
    let old = Array.length c.slots in
    let size = max 8 (2 * old) in
    let slots = Array.make size Pointer.placeholder in
    Array.blit c.slots 0 slots 0 old;
    c.slots <- slots;
    c.free <- Array.init size (fun i -> size - 1 - i);
    c.n_free <- size - old
  end;
  c.n_free <- c.n_free - 1;
  c.free.(c.n_free)

let release_slot c s =
  c.slots.(s) <- Pointer.placeholder;
  c.free.(c.n_free) <- s;
  c.n_free <- c.n_free + 1

let index_add c (p : Pointer.t) =
  let i = lower_bound c p.Pointer.dst in
  if holds c i p.Pointer.dst then c.slots.(slot_at c i) <- p
  else begin
    if (c.n + 1) * entry_bytes > Bytes.length c.order then begin
      let order = Bytes.create (max (8 * entry_bytes) (2 * Bytes.length c.order)) in
      Bytes.blit c.order 0 order 0 (c.n * entry_bytes);
      c.order <- order
    end;
    Bytes.blit c.order (i * entry_bytes) c.order ((i + 1) * entry_bytes)
      ((c.n - i) * entry_bytes);
    let s = take_slot c in
    c.slots.(s) <- p;
    set_entry c i (Id.key p.Pointer.dst) s;
    c.n <- c.n + 1
  end

let index_remove c id =
  let i = lower_bound c id in
  if holds c i id then begin
    release_slot c (slot_at c i);
    Bytes.blit c.order ((i + 1) * entry_bytes) c.order (i * entry_bytes)
      ((c.n - i - 1) * entry_bytes);
    c.n <- c.n - 1
  end

let insert c (p : Pointer.t) =
  (match Lru.put c.lru p.dst p with
   | Some (evicted_key, _) when not (Id.equal evicted_key p.dst) ->
     index_remove c evicted_key
   | Some _ | None -> ());
  if Lru.mem c.lru p.dst then index_add c p

let find c id = Lru.find c.lru id

let best_match c ~cur ~target =
  (* Exact hit first, else the cyclic ring predecessor of target (closest
     not past), accepted only if it improves on cur. *)
  if c.n = 0 then None
  else begin
    let i = lower_bound c target in
    if holds c i target then begin
      let p = ptr_at c i in
      ignore (Lru.find c.lru target);
      Some p
    end
    else begin
      let p = ptr_at c (if i = 0 then c.n - 1 else i - 1) in
      if Id.between_incl cur p.Pointer.dst target then begin
        ignore (Lru.find c.lru p.Pointer.dst);
        Some p
      end
      else None
    end
  end

let remove c id =
  Lru.remove c.lru id;
  index_remove c id

let drop_if c doomed =
  let victims =
    Lru.fold c.lru ~init:[] ~f:(fun acc id p -> if doomed p then id :: acc else acc)
  in
  List.iter (remove c) victims;
  List.length victims

let iter c f = Lru.iter c.lru (fun _ p -> f p)

let clear c =
  Lru.clear c.lru;
  c.order <- Bytes.empty;
  c.n <- 0;
  c.slots <- [||];
  c.free <- [||];
  c.n_free <- 0

let resize c ~capacity =
  Lru.resize c.lru ~capacity;
  (* Compact the index in place, dropping the entries the LRU evicted. *)
  let kept = ref 0 in
  for i = 0 to c.n - 1 do
    let s = slot_at c i in
    if Lru.mem c.lru c.slots.(s).Pointer.dst then begin
      set_entry c !kept (key_at c i) s;
      incr kept
    end
    else release_slot c s
  done;
  c.n <- !kept

let audit c =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let lru_n = Lru.length c.lru in
  if lru_n <> c.n then bad "lru holds %d entries, ring index %d" lru_n c.n;
  if c.n + c.n_free <> Array.length c.slots then
    bad "%d indexed + %d free slots, table holds %d" c.n c.n_free (Array.length c.slots);
  for i = 0 to c.n - 1 do
    let p = ptr_at c i in
    if key_at c i <> Id.key p.Pointer.dst then
      bad "%s indexed under a stale key" (Id.to_short_string p.Pointer.dst);
    if i > 0 && Id.compare (ptr_at c (i - 1)).Pointer.dst p.Pointer.dst >= 0 then
      bad "ring index out of order at %s" (Id.to_short_string p.Pointer.dst);
    if not (Lru.mem c.lru p.Pointer.dst) then
      bad "%s in ring index but missing from lru" (Id.to_short_string p.Pointer.dst)
  done;
  Lru.iter c.lru (fun id (p : Pointer.t) ->
      let i = lower_bound c id in
      if not (holds c i id) then
        bad "%s in lru but missing from ring index" (Id.to_short_string id)
      else begin
        let (q : Pointer.t) = ptr_at c i in
        if not (Id.equal q.dst p.dst && q.dst_router = p.dst_router) then
          bad "%s bound to different pointers in lru and ring index"
            (Id.to_short_string id)
      end);
  List.rev !problems
