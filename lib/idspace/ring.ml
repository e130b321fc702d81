(* Chunked flat sorted-array ring.

   The seed implementation was a persistent [Map.Make(Id)]: every
   [successor]/[predecessor] was an O(log n) pointer-chasing tree walk that
   also allocated closures, and [members_between] folded the whole tree.
   This version stores members in a two-level structure:

     chunks : an array of sorted chunks, each parallel arrays
              (keys, ids, payloads) of at most [max_chunk] entries;
     starts : the first identifier of each chunk (plus its [Id.key]), for a
              cache-friendly binary search over the spine.

   Every search runs over the contiguous unboxed [int array] of [Id.key]s —
   one immediate compare per probe, no pointer chasing — and consults the
   boxed [Id.t] only to break key ties (for SHA-derived ids, essentially
   never; degenerate key-colliding rings stay correct via the linear
   tie-break scan).

   Handles are immutable: [add]/[remove] copy the touched chunk plus the
   spine (O(max_chunk + n/max_chunk) words), leaving every previously
   returned handle valid — so a "snapshot" is the handle itself, O(1), and
   the experiment memo caches can share rings across domains exactly as
   they shared the Map.  Reads never allocate: lookups are binary searches
   driven by immediate ints and the allocation-free [Id.compare], and the
   cursor API exposes positions as immediate ints so the greedy walk can
   step the ring without creating a single heap word. *)

type 'a chunk = { keys : int array; ids : Id.t array; vals : 'a array }

type 'a t =
  | Empty
  | R of {
      chunks : 'a chunk array;
      starts : Id.t array;
      skeys : int array;
      size : int;
    }

(* Chunks split at [max_chunk] into two halves and re-merge with a
   neighbour when a removal shrinks them under [min_chunk]; churn-heavy
   workloads therefore keep every chunk within [min_chunk/2, max_chunk]
   except possibly a lone undersized chunk per neighbourhood of
   full neighbours. *)
let max_chunk = 128

let min_chunk = 32

let empty = Empty

let cardinal = function Empty -> 0 | R r -> r.size

let is_empty = function Empty -> true | R _ -> false

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
let[@inline] lb ch x kx =
  let hi = Array.length ch.keys in
  skip_lt ch.keys ch.ids x kx (klb ch.keys kx hi) hi

let[@inline] ub ch x kx =
  let hi = Array.length ch.keys in
  skip_le ch.keys ch.ids x kx (klb ch.keys kx hi) hi

(* Largest chunk index whose first id is <= x, or -1 when x precedes every
   member in the linear order. *)
let[@inline] chunk_le (skeys : int array) (starts : Id.t array) x kx =
  let n = Array.length skeys in
  skip_le skeys starts x kx (klb skeys kx n) n - 1

let id_at t c =
  match t with
  | Empty -> invalid_arg "Ring.id_at: empty ring"
  | R r -> (Array.unsafe_get r.chunks (chunk_of c)).ids.(off_of c)

let value_at t c =
  match t with
  | Empty -> invalid_arg "Ring.value_at: empty ring"
  | R r -> (Array.unsafe_get r.chunks (chunk_of c)).vals.(off_of c)

let cursor_next t c =
  match t with
  | Empty -> cursor_none
  | R r ->
    let ci = chunk_of c and off = off_of c in
    if off + 1 < Array.length (Array.unsafe_get r.chunks ci).ids then pack ci (off + 1)
    else if ci + 1 < Array.length r.chunks then pack (ci + 1) 0
    else pack 0 0

let cursor_prev t c =
  match t with
  | Empty -> cursor_none
  | R r ->
    let ci = chunk_of c and off = off_of c in
    if off > 0 then pack ci (off - 1)
    else if ci > 0 then pack (ci - 1) (Array.length r.chunks.(ci - 1).ids - 1)
    else begin
      let nch = Array.length r.chunks in
      pack (nch - 1) (Array.length r.chunks.(nch - 1).ids - 1)
    end

let cursor_geq x t =
  match t with
  | Empty -> cursor_none
  | R r ->
    let kx = Id.key x in
    let ci = chunk_le r.skeys r.starts x kx in
    if ci < 0 then pack 0 0
    else begin
      let ch = Array.unsafe_get r.chunks ci in
      let len = Array.length ch.ids in
      let off = lb ch x kx in
      if off < len then pack ci off
      else if ci + 1 < Array.length r.chunks then pack (ci + 1) 0
      else pack 0 0
    end

let cursor_gt x t =
  match t with
  | Empty -> cursor_none
  | R r ->
    let kx = Id.key x in
    let ci = chunk_le r.skeys r.starts x kx in
    if ci < 0 then pack 0 0
    else begin
      let ch = Array.unsafe_get r.chunks ci in
      let len = Array.length ch.ids in
      let off = ub ch x kx in
      if off < len then pack ci off
      else if ci + 1 < Array.length r.chunks then pack (ci + 1) 0
      else pack 0 0
    end

let cursor_lt x t =
  match t with
  | Empty -> cursor_none
  | R r ->
    let nch = Array.length r.chunks in
    let kx = Id.key x in
    let ci = chunk_le r.skeys r.starts x kx in
    if ci < 0 then pack (nch - 1) (Array.length r.chunks.(nch - 1).ids - 1)
    else begin
      let ch = Array.unsafe_get r.chunks ci in
      let off = lb ch x kx in
      if off > 0 then pack ci (off - 1)
      else if ci > 0 then pack (ci - 1) (Array.length r.chunks.(ci - 1).ids - 1)
      else pack (nch - 1) (Array.length r.chunks.(nch - 1).ids - 1)
    end

let cursor_find x t =
  match t with
  | Empty -> cursor_none
  | R r ->
    let kx = Id.key x in
    let ci = chunk_le r.skeys r.starts x kx in
    if ci < 0 then cursor_none
    else begin
      let ch = Array.unsafe_get r.chunks ci in
      let len = Array.length ch.ids in
      let off = lb ch x kx in
      if off < len && Id.equal (Array.unsafe_get ch.ids off) x then pack ci off
      else cursor_none
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
  let n = min k (cardinal t) in
  if n <= 0 then []
  else begin
    let rec go acc c remaining =
      if remaining = 0 then List.rev acc
      else go ((id_at t c, value_at t c) :: acc) (cursor_next t c) (remaining - 1)
    in
    go [] (cursor_gt x t) n
  end

let iter f = function
  | Empty -> ()
  | R r ->
    Array.iter
      (fun ch ->
        for i = 0 to Array.length ch.ids - 1 do
          f ch.ids.(i) ch.vals.(i)
        done)
      r.chunks

let fold f t acc =
  match t with
  | Empty -> acc
  | R r ->
    let acc = ref acc in
    Array.iter
      (fun ch ->
        for i = 0 to Array.length ch.ids - 1 do
          acc := f ch.ids.(i) ch.vals.(i) !acc
        done)
      r.chunks;
    !acc

let to_list t = List.rev (fold (fun k v acc -> (k, v) :: acc) t [])

let members_between a b t =
  match t with
  | Empty -> []
  | R r ->
    if Id.equal a b then begin
      (* Full ring, ordered by clockwise distance from [a]: [a] itself (if
         present, distance 0) first, then the clockwise walk. *)
      let rec go acc c remaining =
        if remaining = 0 then List.rev acc
        else go ((id_at t c, value_at t c) :: acc) (cursor_next t c) (remaining - 1)
      in
      go [] (cursor_geq a t) r.size
    end
    else begin
      (* Members of (a, b] form a prefix of the clockwise walk that starts
         just after [a] (distance from [a] grows monotonically along it),
         so stop at the first member past [b]. *)
      let rec go acc c remaining =
        if remaining = 0 then List.rev acc
        else begin
          let k = id_at t c in
          if Id.between_incl a k b then
            go ((k, value_at t c) :: acc) (cursor_next t c) (remaining - 1)
          else List.rev acc
        end
      in
      go [] (cursor_gt a t) r.size
    end

(* ---- updates ---------------------------------------------------------- *)

let singleton id v =
  R
    {
      chunks = [| { keys = [| Id.key id |]; ids = [| id |]; vals = [| v |] } |];
      starts = [| id |];
      skeys = [| Id.key id |];
      size = 1;
    }

(* Spine rebuilt from scratch when the chunk array changes shape. *)
let spine chunks =
  (Array.map (fun ch -> ch.ids.(0)) chunks,
   Array.map (fun ch -> ch.keys.(0)) chunks)

let add id v t =
  match t with
  | Empty -> singleton id v
  | R r ->
    let kx = Id.key id in
    let ci0 = chunk_le r.skeys r.starts id kx in
    let ci = if ci0 < 0 then 0 else ci0 in
    let ch = r.chunks.(ci) in
    let len = Array.length ch.ids in
    let off = lb ch id kx in
    if off < len && Id.equal ch.ids.(off) id then begin
      (* Replace payload: one chunk's value array + the spine. *)
      let vals = Array.copy ch.vals in
      vals.(off) <- v;
      let chunks = Array.copy r.chunks in
      chunks.(ci) <- { keys = ch.keys; ids = ch.ids; vals };
      R { chunks; starts = r.starts; skeys = r.skeys; size = r.size }
    end
    else begin
      let nlen = len + 1 in
      let keys = Array.make nlen kx in
      let ids = Array.make nlen id and vals = Array.make nlen v in
      Array.blit ch.keys 0 keys 0 off;
      Array.blit ch.ids 0 ids 0 off;
      Array.blit ch.vals 0 vals 0 off;
      Array.blit ch.keys off keys (off + 1) (len - off);
      Array.blit ch.ids off ids (off + 1) (len - off);
      Array.blit ch.vals off vals (off + 1) (len - off);
      if nlen <= max_chunk then begin
        let chunks = Array.copy r.chunks in
        chunks.(ci) <- { keys; ids; vals };
        let starts, skeys =
          if off = 0 then begin
            let s = Array.copy r.starts and sk = Array.copy r.skeys in
            s.(ci) <- id;
            sk.(ci) <- kx;
            (s, sk)
          end
          else (r.starts, r.skeys)
        in
        R { chunks; starts; skeys; size = r.size + 1 }
      end
      else begin
        (* Split the overfull chunk into two halves. *)
        let half = nlen / 2 in
        let left =
          {
            keys = Array.sub keys 0 half;
            ids = Array.sub ids 0 half;
            vals = Array.sub vals 0 half;
          }
        in
        let right =
          {
            keys = Array.sub keys half (nlen - half);
            ids = Array.sub ids half (nlen - half);
            vals = Array.sub vals half (nlen - half);
          }
        in
        let nch = Array.length r.chunks in
        let chunks = Array.make (nch + 1) left in
        Array.blit r.chunks 0 chunks 0 ci;
        chunks.(ci + 1) <- right;
        Array.blit r.chunks (ci + 1) chunks (ci + 2) (nch - ci - 1);
        let starts = Array.make (nch + 1) left.ids.(0) in
        let skeys = Array.make (nch + 1) left.keys.(0) in
        Array.blit r.starts 0 starts 0 ci;
        Array.blit r.skeys 0 skeys 0 ci;
        starts.(ci + 1) <- right.ids.(0);
        skeys.(ci + 1) <- right.keys.(0);
        Array.blit r.starts (ci + 1) starts (ci + 2) (nch - ci - 1);
        Array.blit r.skeys (ci + 1) skeys (ci + 2) (nch - ci - 1);
        R { chunks; starts; skeys; size = r.size + 1 }
      end
    end

let remove id t =
  match t with
  | Empty -> t
  | R r ->
    let kx = Id.key id in
    let ci = chunk_le r.skeys r.starts id kx in
    if ci < 0 then t
    else begin
      let ch = r.chunks.(ci) in
      let len = Array.length ch.ids in
      let off = lb ch id kx in
      if off >= len || not (Id.equal ch.ids.(off) id) then t
      else if r.size = 1 then Empty
      else if len = 1 then begin
        (* Chunk emptied: drop it from the spine. *)
        let nch = Array.length r.chunks in
        let chunks = Array.make (nch - 1) ch in
        Array.blit r.chunks 0 chunks 0 ci;
        Array.blit r.chunks (ci + 1) chunks ci (nch - ci - 1);
        let starts, skeys = spine chunks in
        R { chunks; starts; skeys; size = r.size - 1 }
      end
      else begin
        let nlen = len - 1 in
        let keep = if off = 0 then 1 else 0 in
        let keys = Array.make nlen ch.keys.(keep) in
        let ids = Array.make nlen ch.ids.(keep) in
        let vals = Array.make nlen ch.vals.(keep) in
        Array.blit ch.keys 0 keys 0 off;
        Array.blit ch.ids 0 ids 0 off;
        Array.blit ch.vals 0 vals 0 off;
        Array.blit ch.keys (off + 1) keys off (nlen - off);
        Array.blit ch.ids (off + 1) ids off (nlen - off);
        Array.blit ch.vals (off + 1) vals off (nlen - off);
        let nch = Array.length r.chunks in
        let can_merge nb =
          nb >= 0 && nb < nch && Array.length r.chunks.(nb).ids + nlen <= max_chunk
        in
        if nlen < min_chunk && nch > 1 && (can_merge (ci + 1) || can_merge (ci - 1))
        then begin
          (* Re-merge the shrunken chunk with a neighbour so churn-heavy
             workloads cannot fragment the spine into tiny chunks. *)
          let lo = if can_merge (ci + 1) then ci else ci - 1 in
          let l, r' =
            if lo = ci then ({ keys; ids; vals }, r.chunks.(ci + 1))
            else (r.chunks.(ci - 1), { keys; ids; vals })
          in
          let merged =
            {
              keys = Array.append l.keys r'.keys;
              ids = Array.append l.ids r'.ids;
              vals = Array.append l.vals r'.vals;
            }
          in
          let chunks = Array.make (nch - 1) merged in
          Array.blit r.chunks 0 chunks 0 lo;
          Array.blit r.chunks (lo + 2) chunks (lo + 1) (nch - lo - 2);
          let starts, skeys = spine chunks in
          R { chunks; starts; skeys; size = r.size - 1 }
        end
        else begin
          let chunks = Array.copy r.chunks in
          chunks.(ci) <- { keys; ids; vals };
          let starts, skeys =
            if off = 0 then begin
              let s = Array.copy r.starts and sk = Array.copy r.skeys in
              s.(ci) <- ids.(0);
              sk.(ci) <- keys.(0);
              (s, sk)
            end
            else (r.starts, r.skeys)
          in
          R { chunks; starts; skeys; size = r.size - 1 }
        end
      end
    end

let of_list l = List.fold_left (fun acc (id, v) -> add id v acc) empty l

(* Rebuild a ring from the first [n] entries of sorted parallel arrays,
   packing chunks at 3/4 capacity so follow-up inserts have headroom. *)
let target_chunk = 96

let build_sorted ids vals n =
  if n = 0 then Empty
  else begin
    let nchunks = (n + target_chunk - 1) / target_chunk in
    let chunks =
      Array.init nchunks (fun i ->
          let lo = i * target_chunk in
          let len = min target_chunk (n - lo) in
          {
            keys = Array.init len (fun j -> Id.key ids.(lo + j));
            ids = Array.sub ids lo len;
            vals = Array.sub vals lo len;
          })
    in
    let starts, skeys = spine chunks in
    R { chunks; starts; skeys; size = n }
  end

let filter f t =
  match t with
  | Empty -> t
  | R r ->
    (* Single pass: survivors are counted as they are collected instead of
       the seed's extra O(n) [M.cardinal] walk over the filtered map. *)
    let ids = Array.make r.size r.chunks.(0).ids.(0) in
    let vals = Array.make r.size r.chunks.(0).vals.(0) in
    let n = ref 0 in
    iter
      (fun k v ->
        if f k v then begin
          ids.(!n) <- k;
          vals.(!n) <- v;
          incr n
        end)
      t;
    if !n = r.size then t else build_sorted ids vals !n
