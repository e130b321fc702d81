module Id = Rofl_idspace.Id

(* Pointers live in [slots]; [order] is a ring-ordered index over them and
   [prev]/[next] thread a recency list through the same slot numbers, [head]
   most recently used, [tail] the eviction end (-1 when empty).  Each index
   entry is [entry_bytes] of a [Bytes.t] -- the destination's [Id.key] and
   its slot -- sorted by identifier ([Id.key], then [Id.compare] on key
   ties).  Bytes are never scanned by the GC and inserting or removing an
   entry is one [memmove]; the boxed pointers stay put in [slots], so no
   insert pays a write barrier per shifted element, and recency moves are
   int stores.  A persistent [Ring] index would copy a chunk per insert,
   and the copy, living as long as the cache, would be promoted and later
   swept. *)
type t = {
  mutable cap : int;
  mutable order : Bytes.t;
  mutable n : int;  (* entries in [order] *)
  mutable slots : Pointer.t array;  (* payloads; free slots hold the placeholder *)
  mutable prev : int array;  (* towards [head]; [free_mark] on a free slot *)
  mutable next : int array;  (* towards [tail] *)
  mutable head : int;
  mutable tail : int;
  mutable free : int array;  (* stack of free slot numbers *)
  mutable n_free : int;
}

let free_mark = -2

let entry_bytes = 16

let create ~capacity =
  if capacity < 0 then invalid_arg "Pointer_cache.create: negative capacity";
  {
    cap = capacity;
    order = Bytes.empty;
    n = 0;
    slots = [||];
    prev = [||];
    next = [||];
    head = -1;
    tail = -1;
    free = [||];
    n_free = 0;
  }

let capacity c = c.cap

let length c = c.n

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

(* The stored key answers most misses; the pointer's identifier is loaded
   only on a key match. *)
let[@inline] holds c i id =
  i < c.n && key_at c i = Id.key id && Id.equal (ptr_at c i).Pointer.dst id

(* Grow the slot table (with its links and free stack) to at least one
   free slot; growth doubles, so a cache reaches its fill in O(log
   capacity) copies. *)
let take_slot c =
  if c.n_free = 0 then begin
    let old = Array.length c.slots in
    let size = max 8 (2 * old) in
    let grow a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 old;
      b
    in
    c.slots <- grow c.slots Pointer.placeholder;
    c.prev <- grow c.prev free_mark;
    c.next <- grow c.next free_mark;
    c.free <- Array.init size (fun i -> size - 1 - i);
    c.n_free <- size - old
  end;
  c.n_free <- c.n_free - 1;
  c.free.(c.n_free)

let release_slot c s =
  c.slots.(s) <- Pointer.placeholder;
  c.prev.(s) <- free_mark;
  c.free.(c.n_free) <- s;
  c.n_free <- c.n_free + 1

(* ---- recency list ---- *)

let unlink c s =
  let p = c.prev.(s) and q = c.next.(s) in
  if p < 0 then c.head <- q else c.next.(p) <- q;
  if q < 0 then c.tail <- p else c.prev.(q) <- p

let push_front c s =
  c.prev.(s) <- -1;
  c.next.(s) <- c.head;
  if c.head < 0 then c.tail <- s else c.prev.(c.head) <- s;
  c.head <- s

let promote c s =
  if c.head <> s then begin
    unlink c s;
    push_front c s
  end

(* ---- ring index ---- *)

(* Drop index entry [i] and free its slot, which must already be off the
   recency list. *)
let index_drop c i =
  release_slot c (slot_at c i);
  Bytes.blit c.order ((i + 1) * entry_bytes) c.order (i * entry_bytes)
    ((c.n - i - 1) * entry_bytes);
  c.n <- c.n - 1

(* Index [p] at position [i] (its lower bound) in a fresh slot at the
   head of the recency list. *)
let index_add c i (p : Pointer.t) =
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
  c.n <- c.n + 1;
  push_front c s

let insert c (p : Pointer.t) =
  if c.cap > 0 then begin
    let i = lower_bound c p.dst in
    if holds c i p.dst then begin
      let s = slot_at c i in
      c.slots.(s) <- p;
      promote c s
    end
    else if c.n < c.cap then index_add c i p
    else begin
      (* Full: [p] takes over the tail's slot, and one move of the entries
         between the evictee's index position [j] and [p]'s closes the one
         gap and opens the other. *)
      let s = c.tail in
      let j = lower_bound c c.slots.(s).Pointer.dst in
      let i =
        if j < i then begin
          Bytes.blit c.order ((j + 1) * entry_bytes) c.order (j * entry_bytes)
            ((i - j - 1) * entry_bytes);
          i - 1
        end
        else begin
          Bytes.blit c.order (i * entry_bytes) c.order ((i + 1) * entry_bytes)
            ((j - i) * entry_bytes);
          i
        end
      in
      set_entry c i (Id.key p.Pointer.dst) s;
      c.slots.(s) <- p;
      promote c s
    end
  end

let find c id =
  let i = lower_bound c id in
  if holds c i id then begin
    let s = slot_at c i in
    promote c s;
    Some c.slots.(s)
  end
  else None

let best_match c ~cur ~target =
  (* Exact hit first, else the cyclic ring predecessor of target (closest
     not past), accepted only if it improves on cur. *)
  if c.n = 0 then Pointer.placeholder
  else begin
    let i = lower_bound c target in
    if holds c i target then begin
      let s = slot_at c i in
      promote c s;
      c.slots.(s)
    end
    else begin
      let s = slot_at c (if i = 0 then c.n - 1 else i - 1) in
      let p = c.slots.(s) in
      if Id.between_incl cur p.Pointer.dst target then begin
        promote c s;
        p
      end
      else Pointer.placeholder
    end
  end

let remove c id =
  let i = lower_bound c id in
  if holds c i id then begin
    unlink c (slot_at c i);
    index_drop c i
  end

(* Most recent first, like [iter]; each victim goes as soon as it is
   judged. *)
let drop_if c doomed =
  let dropped = ref 0 in
  let s = ref c.head in
  while !s >= 0 do
    let cur = !s in
    s := c.next.(cur);
    let p = c.slots.(cur) in
    if doomed p then begin
      remove c p.Pointer.dst;
      incr dropped
    end
  done;
  !dropped

let iter c f =
  let s = ref c.head in
  while !s >= 0 do
    let cur = !s in
    s := c.next.(cur);
    f c.slots.(cur)
  done

let clear c =
  c.order <- Bytes.empty;
  c.n <- 0;
  c.slots <- [||];
  c.prev <- [||];
  c.next <- [||];
  c.head <- -1;
  c.tail <- -1;
  c.free <- [||];
  c.n_free <- 0

let resize c ~capacity =
  if capacity < 0 then invalid_arg "Pointer_cache.resize: negative capacity";
  c.cap <- capacity;
  if c.n > capacity then begin
    (* Unlink the least recent down to [capacity], then compact the index
       in place, freeing the slots they left. *)
    for _ = capacity + 1 to c.n do
      let s = c.tail in
      unlink c s;
      c.prev.(s) <- free_mark
    done;
    let kept = ref 0 in
    for i = 0 to c.n - 1 do
      let s = slot_at c i in
      if c.prev.(s) = free_mark then release_slot c s
      else begin
        set_entry c !kept (key_at c i) s;
        incr kept
      end
    done;
    c.n <- !kept
  end

let audit c =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if c.n > c.cap then bad "%d entries over capacity %d" c.n c.cap;
  if c.n + c.n_free <> Array.length c.slots then
    bad "%d indexed + %d free slots, table holds %d" c.n c.n_free (Array.length c.slots);
  for i = 0 to c.n - 1 do
    let s = slot_at c i in
    let p = c.slots.(s) in
    if key_at c i <> Id.key p.Pointer.dst then
      bad "%s indexed under a stale key" (Id.to_short_string p.Pointer.dst);
    if i > 0 && Id.compare (ptr_at c (i - 1)).Pointer.dst p.Pointer.dst >= 0 then
      bad "ring index out of order at %s" (Id.to_short_string p.Pointer.dst);
    if c.prev.(s) = free_mark then
      bad "%s in ring index but off the recency list" (Id.to_short_string p.Pointer.dst)
  done;
  (* Walk the recency list, at most [n + 1] steps so a cycle cannot hang
     the audit. *)
  let walked = ref 0 and last = ref (-1) and s = ref c.head in
  while !s >= 0 && !walked <= c.n do
    let cur = !s in
    let p = c.slots.(cur) in
    if c.prev.(cur) <> !last then
      bad "%s has a broken recency back-link" (Id.to_short_string p.Pointer.dst);
    let i = lower_bound c p.Pointer.dst in
    if not (holds c i p.Pointer.dst && slot_at c i = cur) then
      bad "%s on the recency list but missing from ring index"
        (Id.to_short_string p.Pointer.dst);
    incr walked;
    last := cur;
    s := c.next.(cur)
  done;
  if !walked <> c.n then bad "recency list holds %d entries, ring index %d" !walked c.n;
  if c.tail <> !last then bad "recency tail is not the list's last entry";
  List.rev !problems
