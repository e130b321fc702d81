module Id = Rofl_idspace.Id

(* Entries live in slots, one column per field: [ids] the destination
   identifier, [routes] the route block, [tags] the hosting router packed
   with the start hop and kind.  [order] is a ring-ordered index
   over the slots and [links] threads a recency list through the same slot
   numbers, [head] most recently used, [tail] the eviction end (-1 when
   empty); the free slots chain through the same links from [free].  A
   slot costs four words, the four columns.  Each index entry is
   [entry_bytes] of a [Bytes.t] -- the destination's [Id.key] and its
   slot -- sorted by identifier ([Id.key], then [Id.compare] on key ties).
   Bytes are never scanned by the GC and inserting or removing an entry is
   one [memmove]; the columns stay put, so no insert pays a write barrier
   per shifted element, and recency moves are int stores.  An entry is no
   record, so an insert builds nothing. *)
type t = {
  cap : int;
  mutable order : Bytes.t;
  mutable n : int;  (* entries in [order] *)
  mutable ids : Id.t array;  (* free slots hold [Id.zero] *)
  mutable routes : Sourceroute.t array;  (* free slots hold the empty block *)
  mutable tags : int array;
  mutable links : int array;  (* each slot's [prev] and [next], packed *)
  mutable head : int;
  mutable tail : int;
  mutable free : int;  (* the first free slot, -1 if none *)
}

let none = -1

let free_mark = -2

let entry_bytes = 16

let no_route = Sourceroute.of_block Bytes.empty

let create ~capacity =
  if capacity < 0 then invalid_arg "Pointer_cache.create: negative capacity";
  if capacity > 1 lsl 29 then invalid_arg "Pointer_cache.create: capacity over 2^29";
  {
    cap = capacity;
    order = Bytes.empty;
    n = 0;
    ids = [||];
    routes = [||];
    tags = [||];
    links = [||];
    head = -1;
    tail = -1;
    free = -1;
  }

let capacity c = c.cap

let length c = c.n

let[@inline] dst c s = Array.unsafe_get c.ids s

let[@inline] route c s = Array.unsafe_get c.routes s

(* A tag is the router above bit 18 over {!Pointer.pack}'s start hop (bits
   2..17: a hop of a route, below 0xFFFF like every router index) and kind
   (bits 0..1). *)
let[@inline] dst_router c s = Array.unsafe_get c.tags s lsr 18

let[@inline] start c s = (Array.unsafe_get c.tags s lsr 2) land 0xFFFF

let kind c s = Pointer.kind_of_at (Array.unsafe_get c.tags s)

(* A slot's two links in one int: [prev] (towards [head]; [free_mark] on a
   free slot) above bit 32, and [next] (towards [tail], or the next free
   slot) plus 2 below, so -1 and -2 fit.  Slots stay below twice the
   capacity, so below 2^30. *)
let[@inline] link p q = (p lsl 32) lor (q + 2)

let[@inline] prev c s = Array.unsafe_get c.links s asr 32

let[@inline] next c s = (Array.unsafe_get c.links s land 0xFFFF_FFFF) - 2

let[@inline] set_prev c s p = c.links.(s) <- link p (next c s)

let[@inline] set_next c s q = c.links.(s) <- link (prev c s) q

let[@inline] key_at c i = Int64.to_int (Bytes.get_int64_ne c.order (i * entry_bytes))

let[@inline] slot_at c i = Int64.to_int (Bytes.get_int64_ne c.order ((i * entry_bytes) + 8))

let[@inline] set_entry c i key slot =
  Bytes.set_int64_ne c.order (i * entry_bytes) (Int64.of_int key);
  Bytes.set_int64_ne c.order ((i * entry_bytes) + 8) (Int64.of_int slot)

let[@inline] id_at c i = Array.unsafe_get c.ids (slot_at c i)

(* First index position whose identifier is >= [id] in linear order ([n]
   if none).  Keys decide unless they tie; ties fall back to the full
   128-bit compare. *)
let rec search c id k lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) lsr 1 in
    let km = key_at c mid in
    if km < k || (km = k && Id.compare (id_at c mid) id < 0) then search c id k (mid + 1) hi
    else search c id k lo mid
  end

let lower_bound c id = search c id (Id.key id) 0 c.n

(* The stored key answers most misses; the identifier is loaded only on a
   key match. *)
let[@inline] holds c i id = i < c.n && key_at c i = Id.key id && Id.equal (id_at c i) id

(* Grow the columns to at least one free slot, chaining the new ones onto
   the free list; growth doubles, so a cache reaches its fill in
   O(log capacity) copies. *)
let take_slot c =
  if c.free < 0 then begin
    let old = Array.length c.ids in
    let size = max 8 (2 * old) in
    let grow a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 old;
      b
    in
    c.ids <- grow c.ids Id.zero;
    c.routes <- grow c.routes no_route;
    c.tags <- grow c.tags 0;
    let links = grow c.links 0 in
    for s = old to size - 1 do
      links.(s) <- link free_mark (if s + 1 < size then s + 1 else -1)
    done;
    c.links <- links;
    c.free <- old
  end;
  let s = c.free in
  c.free <- next c s;
  s

let release_slot c s =
  c.ids.(s) <- Id.zero;
  c.routes.(s) <- no_route;
  c.links.(s) <- link free_mark c.free;
  c.free <- s

let[@inline] set_slot c s ~dst ~route ~tag =
  c.ids.(s) <- dst;
  c.routes.(s) <- route;
  c.tags.(s) <- tag

(* ---- recency list ---- *)

let unlink c s =
  let p = prev c s and q = next c s in
  if p < 0 then c.head <- q else set_next c p q;
  if q < 0 then c.tail <- p else set_prev c q p

let push_front c s =
  c.links.(s) <- link (-1) c.head;
  if c.head < 0 then c.tail <- s else set_prev c c.head s;
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

(* Index a new entry at position [i] (its lower bound) in a fresh slot at
   the head of the recency list. *)
let index_add c i ~dst ~route ~tag =
  if (c.n + 1) * entry_bytes > Bytes.length c.order then begin
    let order = Bytes.create (max (8 * entry_bytes) (2 * Bytes.length c.order)) in
    Bytes.blit c.order 0 order 0 (c.n * entry_bytes);
    c.order <- order
  end;
  Bytes.blit c.order (i * entry_bytes) c.order ((i + 1) * entry_bytes)
    ((c.n - i) * entry_bytes);
  let s = take_slot c in
  set_slot c s ~dst ~route ~tag;
  set_entry c i (Id.key dst) s;
  c.n <- c.n + 1;
  push_front c s

let insert c kind ~dst ~dst_router ~route ~start =
  let tag = (dst_router lsl 18) lor Pointer.pack kind ~dst_router ~route ~start in
  if c.cap > 0 then begin
    let i = lower_bound c dst in
    if holds c i dst then begin
      let s = slot_at c i in
      set_slot c s ~dst ~route ~tag;
      promote c s
    end
    else if c.n < c.cap then index_add c i ~dst ~route ~tag
    else begin
      (* Full: the new entry takes over the tail's slot, and one move of
         the index entries between the evictee's position [j] and the new
         one's closes the one gap and opens the other. *)
      let s = c.tail in
      let j = lower_bound c c.ids.(s) in
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
      set_entry c i (Id.key dst) s;
      set_slot c s ~dst ~route ~tag;
      promote c s
    end
  end

let find c id =
  let i = lower_bound c id in
  if holds c i id then begin
    let s = slot_at c i in
    promote c s;
    s
  end
  else none

let best_match c ~cur ~target =
  (* Exact hit first, else the cyclic ring predecessor of target (closest
     not past), accepted only if it improves on cur. *)
  if c.n = 0 then none
  else begin
    let i = lower_bound c target in
    if holds c i target then begin
      let s = slot_at c i in
      promote c s;
      s
    end
    else begin
      let s = slot_at c (if i = 0 then c.n - 1 else i - 1) in
      if Id.between_incl cur c.ids.(s) target then begin
        promote c s;
        s
      end
      else none
    end
  end

let remove c id =
  let i = lower_bound c id in
  if holds c i id then begin
    unlink c (slot_at c i);
    index_drop c i
  end

(* Most recent first, like [iter]; each victim goes as soon as it is
   judged.  A top-level loop over immediate ints: nothing is allocated. *)
let rec drop_from c doomed s dropped =
  if s < 0 then dropped
  else begin
    let next = next c s in
    if doomed c s then begin
      remove c c.ids.(s);
      drop_from c doomed next (dropped + 1)
    end
    else drop_from c doomed next dropped
  end

let drop_if c doomed = drop_from c doomed c.head 0

let iter c f =
  let s = ref c.head in
  while !s >= 0 do
    let cur = !s in
    s := next c cur;
    f cur
  done

let clear c =
  c.order <- Bytes.empty;
  c.n <- 0;
  c.ids <- [||];
  c.routes <- [||];
  c.tags <- [||];
  c.links <- [||];
  c.head <- -1;
  c.tail <- -1;
  c.free <- -1

let audit c =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if c.n > c.cap then bad "%d entries over capacity %d" c.n c.cap;
  (* Walk the free list, at most one step per slot so a cycle cannot hang
     the audit. *)
  let size = Array.length c.ids in
  let n_free = ref 0 and s = ref c.free in
  while !s >= 0 && !n_free <= size do
    if prev c !s <> free_mark then bad "free slot %d is on the recency list" !s;
    incr n_free;
    s := next c !s
  done;
  if c.n + !n_free <> size then
    bad "%d indexed + %d free slots, table holds %d" c.n !n_free size;
  for i = 0 to c.n - 1 do
    let s = slot_at c i in
    let id = c.ids.(s) in
    if key_at c i <> Id.key id then bad "%s indexed under a stale key" (Id.to_short_string id);
    if i > 0 && Id.compare (id_at c (i - 1)) id >= 0 then
      bad "ring index out of order at %s" (Id.to_short_string id);
    if prev c s = free_mark then
      bad "%s in ring index but off the recency list" (Id.to_short_string id);
    let route = c.routes.(s) in
    if
      start c s >= Sourceroute.routers route
      || Sourceroute.destination route <> dst_router c s
    then bad "%s: route column does not lead to its router" (Id.to_short_string id)
  done;
  (* Walk the recency list, at most [n + 1] steps so a cycle cannot hang
     the audit. *)
  let walked = ref 0 and last = ref (-1) and s = ref c.head in
  while !s >= 0 && !walked <= c.n do
    let cur = !s in
    let id = c.ids.(cur) in
    if prev c cur <> !last then
      bad "%s has a broken recency back-link" (Id.to_short_string id);
    let i = lower_bound c id in
    if not (holds c i id && slot_at c i = cur) then
      bad "%s on the recency list but missing from ring index" (Id.to_short_string id);
    incr walked;
    last := cur;
    s := next c cur
  done;
  if !walked <> c.n then bad "recency list holds %d entries, ring index %d" !walked c.n;
  if c.tail <> !last then bad "recency tail is not the list's last entry";
  List.rev !problems
