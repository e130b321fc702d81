module Graph = Rofl_topology.Graph

type event =
  | Link_down of int * int
  | Link_up of int * int
  | Router_down of int
  | Router_up of int

(* Resumable Dijkstra state for one source.  The tree is grown on demand:
   single-pair queries ([route], [distance_to]) settle only as
   far as their destination; whole-tree consumers ([eccentricity_hops]) run
   the frontier dry.  A node is "labeled" once [dist] is finite: its parent
   then records the path the label came from, whether or not the node is
   settled yet.

   A tree is two blocks the GC never scans: [dist], a flat float array, and
   [lab], [label_bytes] per router: the parent and the hop count as
   little-endian uint16 ([none] for no parent or no hops) and a flag byte
   that is 1 once the router is settled.  A fresh [lab] is all 0xFF: no
   parent, no hops, not settled.  [create] bounds the graph below [none]
   routers, so every router and every hop count fits.

   The frontier is a binary min-heap over two parallel unboxed arrays: the
   distance when pushed, and the push sequence number and router packed as
   [(seq lsl 16) lor router].  Sequence numbers are unique, so comparing
   packed entries compares sequences, and the heap is ordered by (distance,
   push sequence) -- the FIFO tie-break of [Rofl_util.Heap.push].  The order
   is total, so the settle order, and with it the parent chosen on every
   equal-latency tie, depends only on the relaxation order, never on the
   heap's shape.  Entries are not decreased in place: an improving
   relaxation pushes a fresh entry and the stale one is skipped when
   popped. *)
type spf = {
  src : int;
  dist : float array;   (* latency distance, infinity if unlabeled *)
  lab : Bytes.t;        (* per router: parent, hops, settled flag *)
  mutable fkey : float array; (* frontier entry: distance when pushed *)
  mutable fent : int array;   (* frontier entry: (push sequence, router) *)
  mutable fsize : int;
  mutable pushes : int;       (* sequence number of the next push *)
  mutable complete : bool; (* frontier drained: every [dist] is final *)
}

type scratch = { s_dist : float array; s_lab : Bytes.t }

type t = {
  g : Graph.t;
  n : int;
  off : int array;
  nbr : int array;
  wt : float array;
  (* Flat adjacency: router [u]'s links are [nbr.(e)]/[wt.(e)] for [e] in
     [off.(u), off.(u+1)), in exactly [Graph.neighbors] order -- the
     relaxation order, which decides parents on equal-latency ties.  The
     graph must not gain links after [create]. *)
  adj : Bytes.t option;
  (* [n * n] liveness bit matrix: bit (u*n + v) is 1 iff the link exists,
     is not failed, and both endpoints are alive.  [link_alive] sits inside
     every SPF relaxation and every per-hop source-route validation, where
     the hashtable probes (tuple hashing included) dominate profiles; one
     bounds-checked byte read replaces them.  [None] only for graphs too
     large for an n^2 table, which fall back to the probe chain. *)
  failed_links : (int * int, unit) Hashtbl.t; (* canonical (min,max) key *)
  dead : Bytes.t; (* byte [r] is 1 iff router [r] is failed *)
  mutable dead_count : int;
  spf_cache : spf array; (* src -> partial or complete tree, or [no_tree] *)
  mutable free_scratch : scratch list; (* recycled blocks of dropped trees *)
  mutable comp : int array;
  (* Connected-component label of every router over the live links, -1 for
     a dead router; [no_comp] until first asked for and after every event.
     Built aside and published whole by one store, so a reader sees either
     [no_comp] or a complete labelling. *)
  mutable hop_rows : Bytes.t array;
  (* Min-hop rows: [hop_rows.(src)] holds, as a little-endian uint16 per
     router, the live hop distance from [src] ([none] unreachable), or is
     [no_row] until first asked for.  The array itself is [no_rows] after
     every event.  Like [comp], each row is built aside and published by
     one store. *)
  mutable listeners : (event -> unit) list;
}

let matrix_limit = 4096

(* The uint16 "none": no parent, no hop count, unreachable.  Router indices
   and hop counts stay below it because [create] refuses larger graphs. *)
let none = 0xFFFF

let label_bytes = 5

let[@inline] parent lab v = Bytes.get_uint16_le lab (label_bytes * v)

let[@inline] hops lab v = Bytes.get_uint16_le lab ((label_bytes * v) + 2)

let[@inline] settled lab v = Bytes.get lab ((label_bytes * v) + 4) = '\001'

let[@inline] set_label lab v ~parent ~hops =
  Bytes.set_uint16_le lab (label_bytes * v) parent;
  Bytes.set_uint16_le lab ((label_bytes * v) + 2) hops

let[@inline] settle lab v = Bytes.set lab ((label_bytes * v) + 4) '\001'

let no_comp : int array = [||]

let no_row = Bytes.empty

let no_rows : Bytes.t array = [||]

let no_floats : float array = [||]

let no_ints : int array = [||]

(* The empty [spf_cache] cell: its negative [src] tells it from a tree.
   Never mutated. *)
let no_tree =
  { src = -1; dist = no_floats; lab = Bytes.empty; fkey = no_floats; fent = no_ints;
    fsize = 0; pushes = 0; complete = true }

let graph t = t.g

let on_event t f = t.listeners <- f :: t.listeners

(* Every event changes the live topology, so it retires the component
   labels and the min-hop rows before any listener can ask for them. *)
let notify t ev =
  t.comp <- no_comp;
  t.hop_rows <- no_rows;
  List.iter (fun f -> f ev) t.listeners

let canonical u v = if u <= v then (u, v) else (v, u)

(* Indices outside the graph read as alive. *)
let[@inline] router_alive t r = r < 0 || r >= t.n || Bytes.unsafe_get t.dead r = '\000'

let healthy t = Hashtbl.length t.failed_links = 0 && t.dead_count = 0

let link_alive t u v =
  match t.adj with
  | Some a ->
    let i = (u * t.n) + v in
    Char.code (Bytes.get a (i lsr 3)) land (1 lsl (i land 7)) <> 0
  | None ->
    router_alive t u && router_alive t v
    && Graph.has_link t.g u v
    && not (Hashtbl.mem t.failed_links (canonical u v))

let set_bit a i alive =
  let byte = Char.code (Bytes.get a (i lsr 3)) and bit = 1 lsl (i land 7) in
  Bytes.set a (i lsr 3) (Char.unsafe_chr (if alive then byte lor bit else byte land lnot bit))

let set_adj t u v alive =
  match t.adj with
  | Some a ->
    set_bit a ((u * t.n) + v) alive;
    set_bit a ((v * t.n) + u) alive
  | None -> ()

let create g =
  let n = Graph.n g in
  if n >= none then invalid_arg "Linkstate.create: graph too large";
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + List.length (Graph.neighbors g u)
  done;
  let nbr = Array.make off.(n) 0 and wt = Array.make off.(n) 0.0 in
  for u = 0 to n - 1 do
    List.iteri
      (fun k (v, w) ->
        nbr.(off.(u) + k) <- v;
        wt.(off.(u) + k) <- w)
      (Graph.neighbors g u)
  done;
  let t =
    {
      g;
      n;
      off;
      nbr;
      wt;
      adj = (if n <= matrix_limit then Some (Bytes.make (((n * n) + 7) / 8) '\000') else None);
      failed_links = Hashtbl.create 16;
      dead = Bytes.make n '\000';
      dead_count = 0;
      spf_cache = Array.make n no_tree;
      free_scratch = [];
      comp = no_comp;
      hop_rows = no_rows;
      listeners = [];
    }
  in
  Graph.iter_links g (fun { Graph.u; v; _ } -> set_adj t u v true);
  t

(* -- the frontier ---------------------------------------------------------

   Every function here takes and returns immediates only, so no float is
   boxed crossing a call: a push reads its key from [dist.(v)], which the
   relaxation has just written. *)

let min_frontier = 16

let resize_frontier st cap =
  let key = Array.make cap 0.0 and ent = Array.make cap 0 in
  Array.blit st.fkey 0 key 0 st.fsize;
  Array.blit st.fent 0 ent 0 st.fsize;
  st.fkey <- key;
  st.fent <- ent

(* A new entry carries the largest sequence number so far, so it rises only
   past strictly larger distances. *)
let push st v =
  if st.fsize = Array.length st.fent then
    resize_frontier st (max min_frontier (2 * st.fsize));
  let key = st.fkey and ent = st.fent in
  let d = st.dist.(v) in
  let i = ref st.fsize in
  st.fsize <- st.fsize + 1;
  while !i > 0 && d < key.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    key.(!i) <- key.(p);
    ent.(!i) <- ent.(p);
    i := p
  done;
  key.(!i) <- d;
  ent.(!i) <- (st.pushes lsl 16) lor v;
  st.pushes <- st.pushes + 1

(* Remove and return the (distance, sequence)-least entry's router. *)
let pop st =
  let key = st.fkey and ent = st.fent in
  let top = ent.(0) land 0xFFFF in
  let last = st.fsize - 1 in
  st.fsize <- last;
  if last > 0 then begin
    let k = key.(last) and x = ent.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && (key.(r) < key.(l) || (key.(r) = key.(l) && ent.(r) < ent.(l)))
          then r
          else l
        in
        if key.(c) < k || (key.(c) = k && ent.(c) < x) then begin
          key.(!i) <- key.(c);
          ent.(!i) <- ent.(c);
          i := c
        end
        else sifting := false
      end
    done;
    key.(!i) <- k;
    ent.(!i) <- x
  end;
  top

(* A drained frontier gives its arrays back to the GC.  A paused one with
   over four times as many slots as live entries is cut back to twice its
   entries, so a tree that once had a wide frontier does not pin it while it
   waits for its next query, and a frontier that grows and shrinks by small
   steps is not reallocated at every pause. *)
let release_frontier st =
  st.fkey <- no_floats;
  st.fent <- no_ints

let trim_frontier st =
  let cap = Array.length st.fent in
  if cap > min_frontier && cap > 4 * st.fsize then
    resize_frontier st (max min_frontier (2 * st.fsize))

(* -- SPF construction and resumption ------------------------------------ *)

let max_recycled = 32

let take_scratch t n =
  match t.free_scratch with
  | s :: rest when Array.length s.s_dist = n ->
    t.free_scratch <- rest;
    Array.fill s.s_dist 0 n infinity;
    Bytes.fill s.s_lab 0 (Bytes.length s.s_lab) '\xff';
    s
  | _ -> { s_dist = Array.make n infinity; s_lab = Bytes.make (label_bytes * n) '\xff' }

let recycle t (st : spf) =
  if List.length t.free_scratch < max_recycled then
    t.free_scratch <- { s_dist = st.dist; s_lab = st.lab } :: t.free_scratch

let new_spf t src =
  let s = take_scratch t t.n in
  let st =
    {
      src;
      dist = s.s_dist;
      lab = s.s_lab;
      fkey = no_floats;
      fent = no_ints;
      fsize = 0;
      pushes = 0;
      complete = false;
    }
  in
  if router_alive t src then begin
    st.dist.(src) <- 0.0;
    set_label st.lab src ~parent:none ~hops:0;
    push st src
  end
  else st.complete <- true;
  st

(* Settle frontier nodes until [until] is settled or the frontier drains
   ([until] = -1 always drains).  Relaxations consult the *current* failed
   sets; the invalidation rules below guarantee any tree kept across an
   event resumes to the same labels a from-scratch run on the new topology
   would produce.  A settled router is never relabelled: over a zero-latency
   link a later router can reach it again at the same distance in fewer
   hops, and moving it then would leave the hop counts of the routers
   already labelled through it longer than their parent chains.  An
   unlabeled router's hop count reads [none], above every real count. *)
let advance t (st : spf) until =
  let dist = st.dist and lab = st.lab in
  let off = t.off and nbr = t.nbr and wt = t.wt in
  let running = ref true in
  while !running do
    if st.fsize = 0 then begin
      st.complete <- true;
      release_frontier st;
      running := false
    end
    else begin
      let u = pop st in
      if not (settled lab u) then begin
        settle lab u;
        let du = dist.(u) and hu = hops lab u + 1 in
        for e = off.(u) to off.(u + 1) - 1 do
          let v = nbr.(e) in
          if (not (settled lab v)) && link_alive t u v then begin
            let nd = du +. wt.(e) in
            if nd < dist.(v) || (nd = dist.(v) && hu < hops lab v) then begin
              dist.(v) <- nd;
              set_label lab v ~parent:u ~hops:hu;
              push st v
            end
          end
        done;
        if u = until then begin
          trim_frontier st;
          running := false
        end
      end
    end
  done

(* The one entry to a tree: the cached tree for [src] (built on a miss),
   settled at least as far as [dst] ([-1]: completely).  Allocation-free on
   a warm tree. *)
let settled_state t src dst =
  if t.spf_cache.(src).src < 0 then t.spf_cache.(src) <- new_spf t src;
  let st = t.spf_cache.(src) in
  if not (st.complete || (dst >= 0 && settled st.lab dst)) then advance t st dst;
  st

(* -- targeted invalidation ----------------------------------------------

   The old engine bumped a global version on every event, discarding all
   cached trees.  Instead, each event drops exactly the trees it can have
   changed:

   - fail_link (u,v):   a tree changes only if the edge carried a label
                        (parent(v) = u or parent(u) = v).  Removing a
                        non-tree edge removes no used path and can only
                        lengthen alternatives, so every label stays optimal.
   - restore_link (u,v): a tree changes only if the new edge improves some
                        label.  For settled endpoints the labels are final,
                        so the triangle test against the edge weight is
                        exact; an incomplete tree whose endpoints are not
                        both settled is dropped conservatively (its labels
                        are still upper bounds and could shrink past the
                        test).
   - fail_router r:     a tree changes only if r carries a label
                        (dist.(r) < inf); unlabeled routers appear on no
                        recorded path, and resumption skips dead routers.
   - restore_router r:  a tree changes only if r becomes reachable, i.e.
                        some live neighbour carries a final label.  Settled
                        sources only; incomplete trees drop conservatively.

   Soundness beats precision here: a dropped tree costs one recomputation,
   a kept stale tree corrupts every downstream figure. *)

let drop_trees t pred =
  Array.iteri
    (fun src st ->
      if st.src >= 0 && pred st then begin
        recycle t st;
        t.spf_cache.(src) <- no_tree
      end)
    t.spf_cache

let tree_uses_link (st : spf) u v = parent st.lab v = u || parent st.lab u = v

(* Two unlabeled endpoints never pass: [inf + w = inf], but their hop
   counts both read [none]. *)
let link_could_improve (st : spf) u v w =
  let du = st.dist.(u) and dv = st.dist.(v) in
  du +. w < dv || dv +. w < du
  || (du +. w = dv && hops st.lab u + 1 < hops st.lab v)
  || (dv +. w = du && hops st.lab v + 1 < hops st.lab u)

let invalidate_link_down t u v = drop_trees t (fun st -> tree_uses_link st u v)

let invalidate_link_up t u v =
  if link_alive t u v then begin
    let w = Graph.latency t.g u v in
    drop_trees t (fun st ->
        if st.complete || (settled st.lab u && settled st.lab v) then
          link_could_improve st u v w
        else true)
  end

let invalidate_router_down t r =
  drop_trees t (fun st -> st.src = r || st.dist.(r) < infinity)

let invalidate_router_up t r =
  drop_trees t (fun st ->
      st.src = r
      || (not st.complete)
      || List.exists
           (fun (u, _) -> link_alive t u r && st.dist.(u) < infinity)
           (Graph.neighbors t.g r))

let fail_link t u v =
  if not (Graph.has_link t.g u v) then invalid_arg "Linkstate.fail_link: no such link";
  let key = canonical u v in
  if not (Hashtbl.mem t.failed_links key) then begin
    Hashtbl.add t.failed_links key ();
    set_adj t u v false;
    invalidate_link_down t u v;
    notify t (Link_down (u, v))
  end

let restore_link t u v =
  let key = canonical u v in
  if Hashtbl.mem t.failed_links key then begin
    Hashtbl.remove t.failed_links key;
    set_adj t u v (router_alive t u && router_alive t v);
    invalidate_link_up t u v;
    notify t (Link_up (u, v))
  end

let fail_router t r =
  if router_alive t r then begin
    Bytes.set t.dead r '\001';
    t.dead_count <- t.dead_count + 1;
    List.iter (fun (v, _) -> set_adj t r v false) (Graph.neighbors t.g r);
    invalidate_router_down t r;
    notify t (Router_down r)
  end

let restore_router t r =
  if not (router_alive t r) then begin
    Bytes.set t.dead r '\000';
    t.dead_count <- t.dead_count - 1;
    List.iter
      (fun (v, _) ->
        set_adj t r v
          (router_alive t v && not (Hashtbl.mem t.failed_links (canonical r v))))
      (Graph.neighbors t.g r);
    invalidate_router_up t r;
    notify t (Router_up r)
  end

(* -- queries ------------------------------------------------------------ *)

let distance_to t src dst =
  if not (router_alive t src && router_alive t dst) then None
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then Some st.dist.(dst) else None
  end

(* The one route kernel: a route block sized from the destination's hop
   count and filled back to front from the parent chain.  Every ancestor of
   a labeled router is settled, so the chain is complete even in a partial
   tree, and a label's hop count is its chain's length. *)
let no_route = Bytes.empty

let route t src dst =
  if not (router_alive t src && router_alive t dst) then no_route
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) = infinity then no_route
    else begin
      let lab = st.lab in
      let h = hops lab dst in
      let b = Bytes.create (2 * (h + 1)) in
      let v = ref dst in
      for i = h downto 0 do
        Bytes.set_uint16_le b (2 * i) !v;
        v := parent lab !v
      done;
      b
    end
  end

(* -- breadth-first labels -------------------------------------------------

   One kernel serves the component labels and the min-hop rows.  Its
   scratch is per domain ([Pool] domains read different networks at once):
   [level] is -1 everywhere between calls, and [queue] holds the visit
   order, which is also the list of entries to reset. *)

type bfs_scratch = { mutable level : int array; mutable queue : int array }

let bfs_scratch = Domain.DLS.new_key (fun () -> { level = [||]; queue = [||] })

let scratch_for n =
  let sc = Domain.DLS.get bfs_scratch in
  if Array.length sc.level < n then begin
    sc.level <- Array.make n (-1);
    sc.queue <- Array.make n 0
  end;
  sc

(* Breadth-first over live links from [root], which [sc.level] must still
   mark -1: every router reached gets its hop distance from [root] in
   [sc.level] and is appended to [sc.queue] from [tail].  Returns the new
   tail. *)
let bfs t sc root tail =
  let level = sc.level and queue = sc.queue in
  level.(root) <- 0;
  queue.(tail) <- root;
  let head = ref tail and tail = ref (tail + 1) in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let d = level.(u) + 1 in
    for e = t.off.(u) to t.off.(u + 1) - 1 do
      let v = t.nbr.(e) in
      if level.(v) < 0 && link_alive t u v then begin
        level.(v) <- d;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

let reset_scratch sc tail =
  for i = 0 to tail - 1 do
    sc.level.(sc.queue.(i)) <- -1
  done

(* Label every router with the smallest router of its component, -1 when
   dead: one search per component, in router order. *)
let build_components t =
  let n = t.n in
  let comp = Array.make n (-1) and sc = scratch_for n in
  let tail = ref 0 in
  for root = 0 to n - 1 do
    if comp.(root) < 0 && router_alive t root then begin
      let start = !tail in
      tail := bfs t sc root start;
      for i = start to !tail - 1 do
        comp.(sc.queue.(i)) <- root
      done
    end
  done;
  reset_scratch sc !tail;
  t.comp <- comp;
  comp

let components t = if t.comp == no_comp then build_components t else t.comp

(* Same answer as a tree query ([distance_to <> None]), from the labels
   alone: no tree is grown or cached. *)
let reachable t src dst =
  router_alive t src && router_alive t dst
  &&
  let comp = components t in
  comp.(src) = comp.(dst)

let build_hop_row t rows src =
  let row = Bytes.make (2 * t.n) '\xff' and sc = scratch_for t.n in
  let tail = bfs t sc src 0 in
  for i = 0 to tail - 1 do
    let v = sc.queue.(i) in
    Bytes.set_uint16_le row (2 * v) sc.level.(v)
  done;
  reset_scratch sc tail;
  rows.(src) <- row;
  row

let min_hops t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then invalid_arg "Linkstate.min_hops: no such router";
  if not (router_alive t a && router_alive t b) then -1
  else if a = b then 0
  else begin
    let rows =
      if t.hop_rows == no_rows then begin
        let rows = Array.make t.n no_row in
        t.hop_rows <- rows;
        rows
      end
      else t.hop_rows
    in
    let row = if rows.(a) == no_row then build_hop_row t rows a else rows.(a) in
    let h = Bytes.get_uint16_le row (2 * b) in
    if h = none then -1 else h
  end

let distance_hops t src dst =
  if not (router_alive t src && router_alive t dst) then None
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then Some (hops st.lab dst) else None
  end

(* Unboxed twins of [distance_to]/[distance_hops] for per-hop pricing:
   same answers, sentinel returns (NaN / -1) instead of options. *)
let distance_to_nan t src dst =
  if not (router_alive t src && router_alive t dst) then nan
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then st.dist.(dst) else nan
  end

let distance_hops_count t src dst =
  if not (router_alive t src && router_alive t dst) then -1
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then hops st.lab dst else -1
  end

(* Fused pricing: one settle, the latency accumulated straight into a
   float-array register (never crossing a module boundary as a boxed
   return), the hop count back as an immediate.  [dist.(dst)] is the
   left-to-right sum [((0 + w1) + w2) + ...] along the parent chain, bit for
   bit what folding [Graph.latency] over the links of [route] gives. *)
let price_hop_into t src dst ~latency i =
  if not (router_alive t src && router_alive t dst) then -1
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then begin
      latency.(i) <- latency.(i) +. st.dist.(dst);
      hops st.lab dst
    end
    else -1
  end

let rec iter_chain lab src v f x =
  f x v;
  if v <> src then iter_chain lab src (parent lab v) f x

let iter_path t src dst f x =
  if router_alive t src && router_alive t dst then begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then iter_chain st.lab src dst f x
  end

let distance_latency = distance_to

let rec first_hop lab src v =
  let p = parent lab v in
  if p = src then v else first_hop lab src p

let next_hop t src dst =
  if src = dst || not (router_alive t src && router_alive t dst) then None
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then Some (first_hop st.lab src dst) else None
  end

(* A loop, not a local recursive function: the check runs over every
   cached pointer after each failure, and a closure would cost words per
   call. *)
let[@inline] hop_at route i = Bytes.get_uint16_le route (2 * i)

let valid_source_route t route start =
  let n = Bytes.length route / 2 in
  start >= 0 && start < n
  && begin
    let ok = ref (router_alive t (hop_at route start)) and i = ref start in
    while !ok && !i + 1 < n do
      ok := link_alive t (hop_at route !i) (hop_at route (!i + 1));
      incr i
    done;
    !ok
  end

let live_link_count t =
  let count = ref 0 in
  Graph.iter_links t.g (fun { Graph.u; v; _ } -> if link_alive t u v then incr count);
  !count

let lsa_flood_cost t = 2 * live_link_count t

let eccentricity_hops t src =
  let st = settled_state t src (-1) in
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    if st.dist.(v) < infinity && hops st.lab v > !best then best := hops st.lab v
  done;
  !best

let diameter_hops t =
  let best = ref 0 in
  for r = 0 to Graph.n t.g - 1 do
    if router_alive t r then begin
      let e = eccentricity_hops t r in
      if e > !best then best := e
    end
  done;
  !best
