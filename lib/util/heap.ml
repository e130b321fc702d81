(* Struct-of-arrays binary min-heap: slot [i] holds the key
   [(prio.(i), rail.(i), seq.(i))], the caller's int [arg.(i)] and the
   payload [value.(i)], priorities unboxed, so pushes and in-place pops
   allocate nothing. *)
type 'a t = {
  mutable prio : float array;
  mutable rail : int array;
  mutable seq : int array;
  mutable arg : int array;
  mutable value : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Slots at index >= [size] are dead storage and must not keep popped
   payloads (and the arbitrarily large closures they carry) reachable
   between pops.  They hold an immediate dummy instead; every access is
   guarded by [size], so the dummy is never read.  [Obj.magic] is confined
   to this one definition. *)
let vacated : 'a = Obj.magic 0

let create () =
  { prio = [||]; rail = [||]; seq = [||]; arg = [||]; value = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let capacity = Array.length h.rail in
  if h.size = capacity then begin
    let cap = if capacity = 0 then 16 else 2 * capacity in
    let extend a fill = let b = Array.make cap fill in Array.blit a 0 b 0 h.size; b in
    h.prio <- extend h.prio 0.0;
    h.rail <- extend h.rail 0;
    h.seq <- extend h.seq 0;
    h.arg <- extend h.arg 0;
    h.value <- extend h.value vacated
  end

(* Lexicographic (prio, rail, seq).  Plain [push] uses rail -1 with an
   internal counter, so pure-FIFO users keep their insertion order; keyed
   pushes carry content-derived (rail, seq) labels whose order does not
   depend on which heap instance the entry went through — the property the
   sharded engine needs for byte-identical merges. *)
let[@inline] lt (p1 : float) (r1 : int) (s1 : int) p2 r2 s2 =
  p1 < p2 || (p1 = p2 && (r1 < r2 || (r1 = r2 && s1 < s2)))

let[@inline] set h i p r s a v =
  h.prio.(i) <- p;
  h.rail.(i) <- r;
  h.seq.(i) <- s;
  h.arg.(i) <- a;
  h.value.(i) <- v

let[@inline] move h ~src ~dst =
  set h dst h.prio.(src) h.rail.(src) h.seq.(src) h.arg.(src) h.value.(src)

(* Sift a hole up from the new last slot, then drop the entry into it. *)
let[@inline] push_keyed h prio ~rail ~seq ~arg value =
  grow h;
  let i = ref h.size in
  h.size <- h.size + 1;
  while
    !i > 0
    && let up = (!i - 1) / 2 in
       lt prio rail seq h.prio.(up) h.rail.(up) h.seq.(up)
  do
    move h ~src:((!i - 1) / 2) ~dst:!i;
    i := (!i - 1) / 2
  done;
  set h !i prio rail seq arg value

let push h prio value =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  push_keyed h prio ~rail:(-1) ~seq ~arg:0 value

let min_prio_into h reg i = reg.(i) <- h.prio.(0)

let min_rail h = h.rail.(0)

let min_seq h = h.seq.(0)

let min_arg h = h.arg.(0)

(* Remove the root: sift a hole down from slot 0 and drop the former last
   entry into it.  The last slot is cleared first and the popped payload is
   overwritten, so nothing popped stays reachable.  Each step takes the
   least of the moving entry and the children, ties to the entry and then to
   the left child: the choices of a swap-based sift, so the same layout. *)
let take h =
  if h.size = 0 then invalid_arg "Heap.take: empty heap";
  let top = h.value.(0) and last = h.size - 1 in
  h.size <- last;
  let p = h.prio.(last) and r = h.rail.(last) and s = h.seq.(last) in
  let a = h.arg.(last) and x = h.value.(last) in
  h.value.(last) <- vacated;
  if last > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l < last && lt h.prio.(l) h.rail.(l) h.seq.(l) p r s then l else -1 in
      let c =
        if
          l + 1 < last
          && (if c = l then lt h.prio.(l + 1) h.rail.(l + 1) h.seq.(l + 1) h.prio.(l) h.rail.(l) h.seq.(l)
              else lt h.prio.(l + 1) h.rail.(l + 1) h.seq.(l + 1) p r s)
        then l + 1
        else c
      in
      if c < 0 then sifting := false
      else begin
        move h ~src:c ~dst:!i;
        i := c
      end
    done;
    set h !i p r s a x
  end;
  top

let pop h =
  if h.size = 0 then None
  else begin
    let prio = h.prio.(0) in
    Some (prio, take h)
  end
