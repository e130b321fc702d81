(* Chunked flat sorted-array ring, mutated in place.

   The seed implementation was a persistent [Map.Make(Id)]: every
   [successor]/[predecessor] was an O(log n) pointer-chasing tree walk that
   also allocated closures.  This version stores members in a two-level
   structure:

     chunks : an array of sorted chunks, each parallel arrays
              (keys, ids, payloads) whose first [len] entries are live;
     starts : the first identifier of each chunk (plus its [Id.key]), for a
              cache-friendly binary search over the spine.

   Every search runs over the contiguous unboxed [int array] of [Id.key]s —
   one immediate compare per probe, no pointer chasing — and consults the
   boxed [Id.t] only to break key ties (for SHA-derived ids, essentially
   never; degenerate key-colliding rings stay correct via the linear
   tie-break scan).

   [add]/[remove] shift the tail of one chunk in place: the rings this
   serves live as long as their network, so a chunk copied per update
   would be promoted and swept later.  A chunk is allocated at its exact
   size and grows by at most half again when full, up to [max_chunk], so
   spare capacity stays a small share of the ring; only a split or a
   merge reallocates the spine.  Reads never allocate: lookups are binary
   searches driven by immediate ints and the allocation-free
   [Id.compare], and the cursor API exposes positions as immediate ints so
   the greedy walk can step the ring without creating a single heap
   word. *)

type 'a chunk = {
  mutable len : int;
  mutable keys : int array;
  mutable ids : Id.t array;
  mutable vals : 'a array;
}

type 'a t = {
  mutable chunks : 'a chunk array;
  mutable starts : Id.t array;
  mutable skeys : int array;
  mutable size : int;
  mutable version : int;  (* bumped by every update, for [iter] *)
}

(* Chunks split at [max_chunk] into two halves and re-merge with a
   neighbour when a removal shrinks them under [min_chunk]; churn-heavy
   workloads therefore keep every chunk within [min_chunk/2, max_chunk]
   except possibly a lone undersized chunk per neighbourhood of
   full neighbours. *)
let max_chunk = 128

let min_chunk = 32

let create () = { chunks = [||]; starts = [||]; skeys = [||]; size = 0; version = 0 }

let cardinal t = t.size

let is_empty t = t.size = 0

(* ---- cursors ---------------------------------------------------------- *)

type cursor = int

let cursor_none = -1

let cursor_is_none c = c < 0

let cursor_equal (a : cursor) (b : cursor) = a = b

let[@inline] pack ci off = (ci lsl 8) lor off

let[@inline] chunk_of c = c lsr 8

let[@inline] off_of c = c land 0xff

(* Binary searches written as tail recursions over immediate ints: a local
   [ref] would allocate, and these sit under every hop of the greedy walk. *)

(* First index in [keys] holding a key >= k (the length if none); [n >= 1].
   Branchless: [Id.key]s live in [0, 2^62), so the sign of the 63-bit
   difference is a data-independent -1/0 mask and the search runs at
   load latency instead of eating a mispredict per probe. *)
let rec klb_rec (keys : int array) k base n =
  if n <= 1 then base + (((Array.unsafe_get keys base - k) asr 62) land 1)
  else begin
    let half = n lsr 1 in
    let m = (Array.unsafe_get keys (base + half - 1) - k) asr 62 in
    klb_rec keys k (base + (half land m)) (n - half)
  end

let[@inline] klb keys k n = klb_rec keys k 0 n

(* Starting from the first key >= [kx], skip members still strictly below
   [x]: only key ties need the full 128-bit compare. *)
let rec skip_lt (keys : int array) (ids : Id.t array) x kx i hi =
  if
    i < hi
    && Array.unsafe_get keys i = kx
    && Id.compare (Array.unsafe_get ids i) x < 0
  then skip_lt keys ids x kx (i + 1) hi
  else i

let rec skip_le (keys : int array) (ids : Id.t array) x kx i hi =
  if
    i < hi
    && Array.unsafe_get keys i = kx
    && Id.compare (Array.unsafe_get ids i) x <= 0
  then skip_le keys ids x kx (i + 1) hi
  else i

(* First index in the chunk holding an id >= x / > x. *)
let[@inline] lb ch x kx = skip_lt ch.keys ch.ids x kx (klb ch.keys kx ch.len) ch.len

let[@inline] ub ch x kx = skip_le ch.keys ch.ids x kx (klb ch.keys kx ch.len) ch.len

(* Largest chunk index whose first id is <= x, or -1 when x precedes every
   member in the linear order. *)
let[@inline] chunk_le (skeys : int array) (starts : Id.t array) x kx =
  let n = Array.length skeys in
  skip_le skeys starts x kx (klb skeys kx n) n - 1

let id_at t c =
  if t.size = 0 then invalid_arg "Ring.id_at: empty ring";
  (Array.unsafe_get t.chunks (chunk_of c)).ids.(off_of c)

let value_at t c =
  if t.size = 0 then invalid_arg "Ring.value_at: empty ring";
  (Array.unsafe_get t.chunks (chunk_of c)).vals.(off_of c)

let[@inline] last t =
  let nch = Array.length t.chunks in
  pack (nch - 1) ((Array.unsafe_get t.chunks (nch - 1)).len - 1)

let cursor_next t c =
  if t.size = 0 then cursor_none
  else begin
    let ci = chunk_of c and off = off_of c in
    if off + 1 < (Array.unsafe_get t.chunks ci).len then pack ci (off + 1)
    else if ci + 1 < Array.length t.chunks then pack (ci + 1) 0
    else pack 0 0
  end

let cursor_prev t c =
  if t.size = 0 then cursor_none
  else begin
    let ci = chunk_of c and off = off_of c in
    if off > 0 then pack ci (off - 1)
    else if ci > 0 then pack (ci - 1) (t.chunks.(ci - 1).len - 1)
    else last t
  end

(* The first member at or after in-chunk position [off] of chunk [ci],
   wrapping to the minimum. *)
let[@inline] from t ci off =
  if off < (Array.unsafe_get t.chunks ci).len then pack ci off
  else if ci + 1 < Array.length t.chunks then pack (ci + 1) 0
  else pack 0 0

let cursor_geq x t =
  if t.size = 0 then cursor_none
  else begin
    let kx = Id.key x in
    let ci = chunk_le t.skeys t.starts x kx in
    if ci < 0 then pack 0 0 else from t ci (lb (Array.unsafe_get t.chunks ci) x kx)
  end

let cursor_gt x t =
  if t.size = 0 then cursor_none
  else begin
    let kx = Id.key x in
    let ci = chunk_le t.skeys t.starts x kx in
    if ci < 0 then pack 0 0 else from t ci (ub (Array.unsafe_get t.chunks ci) x kx)
  end

let cursor_lt x t =
  if t.size = 0 then cursor_none
  else begin
    let kx = Id.key x in
    let ci = chunk_le t.skeys t.starts x kx in
    if ci < 0 then last t
    else begin
      let off = lb (Array.unsafe_get t.chunks ci) x kx in
      if off > 0 then pack ci (off - 1)
      else if ci > 0 then pack (ci - 1) (t.chunks.(ci - 1).len - 1)
      else last t
    end
  end

let cursor_find x t =
  if t.size = 0 then cursor_none
  else begin
    let kx = Id.key x in
    let ci = chunk_le t.skeys t.starts x kx in
    if ci < 0 then cursor_none
    else begin
      let ch = Array.unsafe_get t.chunks ci in
      let off = lb ch x kx in
      if off < ch.len && Id.equal (Array.unsafe_get ch.ids off) x then pack ci off
      else cursor_none
    end
  end

(* ---- queries ---------------------------------------------------------- *)

let mem id t = not (cursor_is_none (cursor_find id t))

let find id t =
  let c = cursor_find id t in
  if cursor_is_none c then None else Some (value_at t c)

let successor x t =
  let c = cursor_gt x t in
  if cursor_is_none c then None else Some (id_at t c, value_at t c)

let successor_incl x t =
  let c = cursor_geq x t in
  if cursor_is_none c then None else Some (id_at t c, value_at t c)

let predecessor x t =
  let c = cursor_lt x t in
  if cursor_is_none c then None else Some (id_at t c, value_at t c)

let k_successors k x t =
  let n = min k t.size in
  if n <= 0 then []
  else begin
    let rec go acc c remaining =
      if remaining = 0 then List.rev acc
      else go ((id_at t c, value_at t c) :: acc) (cursor_next t c) (remaining - 1)
    in
    go [] (cursor_gt x t) n
  end

(* Loops, not [Array.iter]: a walk builds no closure of its own. *)
let iter f t =
  let version = t.version in
  let chunks = t.chunks in
  for ci = 0 to Array.length chunks - 1 do
    let ch = chunks.(ci) in
    for i = 0 to ch.len - 1 do
      f ch.ids.(i) ch.vals.(i);
      if t.version <> version then invalid_arg "Ring.iter: the callback changed the ring"
    done
  done

let to_list t =
  let acc = ref [] in
  for ci = Array.length t.chunks - 1 downto 0 do
    let ch = t.chunks.(ci) in
    for i = ch.len - 1 downto 0 do
      acc := (ch.ids.(i), ch.vals.(i)) :: !acc
    done
  done;
  !acc

(* ---- updates ---------------------------------------------------------- *)

let chunk_of_sub ch lo len =
  {
    len;
    keys = Array.sub ch.keys lo len;
    ids = Array.sub ch.ids lo len;
    vals = Array.sub ch.vals lo len;
  }

(* Replace the chunk array; the spine follows it. *)
let set_chunks t chunks =
  t.chunks <- chunks;
  t.starts <- Array.map (fun ch -> ch.ids.(0)) chunks;
  t.skeys <- Array.map (fun ch -> ch.keys.(0)) chunks

(* Replace the [n] chunks from [lo] by [repl]. *)
let replace_chunks t lo n repl =
  let nch = Array.length t.chunks in
  set_chunks t
    (Array.concat [ Array.sub t.chunks 0 lo; repl; Array.sub t.chunks (lo + n) (nch - lo - n) ])

(* Split full chunk [ci] into two exact-size halves. *)
let split t ci =
  let ch = t.chunks.(ci) in
  let half = ch.len / 2 in
  replace_chunks t ci 1 [| chunk_of_sub ch 0 half; chunk_of_sub ch half (ch.len - half) |]

(* Insert at [off] of a chunk, shifting its tail right; a full chunk
   array grows in the same copy.  [Array.blit] stores through the write
   barrier element by element once a chunk lives in the major heap; the
   [keys] shifts are plain int stores, so they loop instead. *)
let insert_at ch off kx id v =
  let len = ch.len in
  if len = Array.length ch.keys then begin
    let cap = min max_chunk (max (len + 1) (len + (len / 2))) in
    let keys = Array.make cap kx and ids = Array.make cap id and vals = Array.make cap v in
    Array.blit ch.keys 0 keys 0 off;
    Array.blit ch.ids 0 ids 0 off;
    Array.blit ch.vals 0 vals 0 off;
    Array.blit ch.keys off keys (off + 1) (len - off);
    Array.blit ch.ids off ids (off + 1) (len - off);
    Array.blit ch.vals off vals (off + 1) (len - off);
    ch.keys <- keys;
    ch.ids <- ids;
    ch.vals <- vals
  end
  else begin
    for i = len downto off + 1 do
      Array.unsafe_set ch.keys i (Array.unsafe_get ch.keys (i - 1))
    done;
    Array.blit ch.ids off ch.ids (off + 1) (len - off);
    Array.blit ch.vals off ch.vals (off + 1) (len - off);
    ch.keys.(off) <- kx;
    ch.ids.(off) <- id;
    ch.vals.(off) <- v
  end;
  ch.len <- len + 1

let add id v t =
  t.version <- t.version + 1;
  let kx = Id.key id in
  if t.size = 0 then begin
    set_chunks t [| { len = 1; keys = [| kx |]; ids = [| id |]; vals = [| v |] } |];
    t.size <- 1
  end
  else begin
    let ci = max 0 (chunk_le t.skeys t.starts id kx) in
    let ch = t.chunks.(ci) in
    let off = lb ch id kx in
    if off < ch.len && Id.equal ch.ids.(off) id then ch.vals.(off) <- v
    else begin
      (* A full chunk splits first; [ch] keeps its old length. *)
      let full = ch.len = max_chunk and half = max_chunk / 2 in
      if full then split t ci;
      if full && off > half then insert_at t.chunks.(ci + 1) (off - half) kx id v
      else insert_at t.chunks.(ci) off kx id v;
      if off = 0 then begin
        t.starts.(ci) <- id;
        t.skeys.(ci) <- kx
      end;
      t.size <- t.size + 1
    end
  end

(* Concatenate two chunks into one of exact size. *)
let merge l r =
  let len = l.len + r.len in
  let cat a b =
    let c = Array.make len a.(0) in
    Array.blit a 0 c 0 l.len;
    Array.blit b 0 c l.len r.len;
    c
  in
  { len; keys = cat l.keys r.keys; ids = cat l.ids r.ids; vals = cat l.vals r.vals }

let can_merge t nb len =
  nb >= 0 && nb < Array.length t.chunks && t.chunks.(nb).len + len <= max_chunk

let remove id t =
  if t.size > 0 then begin
    let kx = Id.key id in
    let ci = chunk_le t.skeys t.starts id kx in
    if ci >= 0 then begin
      let ch = t.chunks.(ci) in
      let off = lb ch id kx in
      if off < ch.len && Id.equal ch.ids.(off) id then begin
        t.version <- t.version + 1;
        t.size <- t.size - 1;
        if t.size = 0 then set_chunks t [||]
        else if ch.len = 1 then replace_chunks t ci 1 [||]
        else begin
          let len = ch.len - 1 in
          for i = off to len - 1 do
            Array.unsafe_set ch.keys i (Array.unsafe_get ch.keys (i + 1))
          done;
          Array.blit ch.ids (off + 1) ch.ids off (len - off);
          Array.blit ch.vals (off + 1) ch.vals off (len - off);
          (* The vacated slot keeps a live member, not the removed one. *)
          ch.ids.(len) <- ch.ids.(0);
          ch.vals.(len) <- ch.vals.(0);
          ch.len <- len;
          if off = 0 then begin
            t.starts.(ci) <- ch.ids.(0);
            t.skeys.(ci) <- ch.keys.(0)
          end;
          (* Re-merge the shrunken chunk with a neighbour so churn-heavy
             workloads cannot fragment the spine into tiny chunks. *)
          if len < min_chunk then
            if can_merge t (ci + 1) len then
              replace_chunks t ci 2 [| merge ch t.chunks.(ci + 1) |]
            else if can_merge t (ci - 1) len then
              replace_chunks t (ci - 1) 2 [| merge t.chunks.(ci - 1) ch |]
        end
      end
    end
  end

let audit t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let nch = Array.length t.chunks in
  if Array.length t.starts <> nch || Array.length t.skeys <> nch then
    bad "spine holds %d/%d heads for %d chunks" (Array.length t.starts)
      (Array.length t.skeys) nch;
  let total = ref 0 in
  Array.iteri
    (fun ci ch ->
      total := !total + ch.len;
      if ch.len < 1 || ch.len > max_chunk || ch.len > Array.length ch.keys then
        bad "chunk %d holds %d entries (capacity %d)" ci ch.len (Array.length ch.keys);
      if ch.len >= 1 && ci < Array.length t.starts then
        if not (Id.equal t.starts.(ci) ch.ids.(0) && t.skeys.(ci) = ch.keys.(0)) then
          bad "spine head %d is not its chunk's first member" ci;
      for i = 0 to ch.len - 1 do
        if ch.keys.(i) <> Id.key ch.ids.(i) then bad "chunk %d slot %d has a stale key" ci i
      done)
    t.chunks;
  if !total <> t.size then bad "size %d, chunks hold %d" t.size !total;
  List.rev !problems
