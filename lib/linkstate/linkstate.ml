module Graph = Rofl_topology.Graph
module Heap = Rofl_util.Heap

type event =
  | Link_down of int * int
  | Link_up of int * int
  | Router_down of int
  | Router_up of int

(* Resumable Dijkstra state for one source.  The tree is grown on demand:
   single-pair queries ([path], [distance_to], [reachable]) settle only as
   far as their destination; whole-tree consumers ([eccentricity_hops]) run
   the frontier dry.  A node is "labeled" once [dist] is finite: its entry in
   [parent] then records the path the label came from, whether or not the
   node is settled yet. *)
type spf = {
  src : int;
  dist : float array;   (* latency distance, infinity if unlabeled *)
  hops : int array;     (* hop count along the chosen path *)
  parent : int array;   (* predecessor on shortest path, -1 at source *)
  settled : bool array;
  frontier : int Heap.t;
  mutable complete : bool; (* frontier drained: every [dist] is final *)
}

type scratch = {
  s_dist : float array;
  s_hops : int array;
  s_parent : int array;
  s_settled : bool array;
}

type t = {
  g : Graph.t;
  n : int;
  adj : Bytes.t option;
  (* [n * n] liveness matrix: byte (u*n + v) is 1 iff the link exists, is
     not failed, and both endpoints are alive.  [link_alive] sits inside
     every SPF relaxation and every per-hop source-route validation, where
     the hashtable probes (tuple hashing included) dominate profiles; one
     bounds-checked byte read replaces them.  [None] only for graphs too
     large for an n^2 table, which falls back to the probe chain. *)
  failed_links : (int * int, unit) Hashtbl.t; (* canonical (min,max) key *)
  failed_routers : (int, unit) Hashtbl.t;
  spf_cache : (int, spf) Hashtbl.t; (* src -> partial or complete tree *)
  mutable free_scratch : scratch list; (* recycled arrays of dropped trees *)
  mutable listeners : (event -> unit) list;
}

let matrix_limit = 4096

let create g =
  let n = Graph.n g in
  let adj =
    if n <= matrix_limit then begin
      let a = Bytes.make (n * n) '\000' in
      Graph.iter_links g (fun { Graph.u; v; _ } ->
          Bytes.set a ((u * n) + v) '\001';
          Bytes.set a ((v * n) + u) '\001');
      Some a
    end
    else None
  in
  {
    g;
    n;
    adj;
    failed_links = Hashtbl.create 16;
    failed_routers = Hashtbl.create 16;
    spf_cache = Hashtbl.create 64;
    free_scratch = [];
    listeners = [];
  }

let graph t = t.g

let on_event t f = t.listeners <- f :: t.listeners

let notify t ev = List.iter (fun f -> f ev) t.listeners

let canonical u v = if u <= v then (u, v) else (v, u)

let router_alive t r = not (Hashtbl.mem t.failed_routers r)

let healthy t =
  Hashtbl.length t.failed_links = 0 && Hashtbl.length t.failed_routers = 0

let link_alive t u v =
  match t.adj with
  | Some a -> Bytes.get a ((u * t.n) + v) <> '\000'
  | None ->
    router_alive t u && router_alive t v
    && Graph.has_link t.g u v
    && not (Hashtbl.mem t.failed_links (canonical u v))

let set_adj t u v alive =
  match t.adj with
  | Some a ->
    let byte = if alive then '\001' else '\000' in
    Bytes.set a ((u * t.n) + v) byte;
    Bytes.set a ((v * t.n) + u) byte
  | None -> ()

(* -- SPF construction and resumption ------------------------------------ *)

let max_recycled = 32

let take_scratch t n =
  match t.free_scratch with
  | s :: rest when Array.length s.s_dist = n ->
    t.free_scratch <- rest;
    Array.fill s.s_dist 0 n infinity;
    Array.fill s.s_hops 0 n max_int;
    Array.fill s.s_parent 0 n (-1);
    Array.fill s.s_settled 0 n false;
    s
  | _ ->
    {
      s_dist = Array.make n infinity;
      s_hops = Array.make n max_int;
      s_parent = Array.make n (-1);
      s_settled = Array.make n false;
    }

let recycle t (st : spf) =
  if List.length t.free_scratch < max_recycled then
    t.free_scratch <-
      {
        s_dist = st.dist;
        s_hops = st.hops;
        s_parent = st.parent;
        s_settled = st.settled;
      }
      :: t.free_scratch

let new_spf t src =
  let n = Graph.n t.g in
  let s = take_scratch t n in
  let st =
    {
      src;
      dist = s.s_dist;
      hops = s.s_hops;
      parent = s.s_parent;
      settled = s.s_settled;
      frontier = Heap.create ();
      complete = false;
    }
  in
  if router_alive t src then begin
    st.dist.(src) <- 0.0;
    st.hops.(src) <- 0;
    Heap.push st.frontier 0.0 src
  end
  else st.complete <- true;
  st

(* Settle frontier nodes until [until] (if any) is settled or the frontier
   drains.  Relaxations consult the *current* failed sets; the invalidation
   rules below guarantee any tree kept across an event resumes to the same
   labels a from-scratch run on the new topology would produce. *)
let advance t (st : spf) ~until =
  let stop_at u = match until with Some d -> u = d | None -> false in
  let rec loop () =
    match Heap.pop st.frontier with
    | None -> st.complete <- true
    | Some (_, u) ->
      if st.settled.(u) then loop ()
      else begin
        st.settled.(u) <- true;
        List.iter
          (fun (v, w) ->
            if link_alive t u v then begin
              let nd = st.dist.(u) +. w in
              if
                nd < st.dist.(v)
                || (nd = st.dist.(v) && st.hops.(u) + 1 < st.hops.(v))
              then begin
                st.dist.(v) <- nd;
                st.hops.(v) <- st.hops.(u) + 1;
                st.parent.(v) <- u;
                Heap.push st.frontier nd v
              end
            end)
          (Graph.neighbors t.g u);
        if not (stop_at u) then loop ()
      end
  in
  let already_done =
    st.complete || (match until with Some d -> st.settled.(d) | None -> false)
  in
  if not already_done then loop ()

let state t src =
  match Hashtbl.find_opt t.spf_cache src with
  | Some st -> st
  | None ->
    let st = new_spf t src in
    Hashtbl.replace t.spf_cache src st;
    st

let spf t src =
  let st = state t src in
  advance t st ~until:None;
  st

let settle_to t src dst =
  let st = state t src in
  advance t st ~until:(Some dst);
  st

(* Allocation-free settle for the hot pricing path: on a warm tree the
   [advance] entry alone costs ~10 words ([stop_at]/[loop] closures built
   before the already-done check, plus the [Some dst] witness), and
   [state]'s [find_opt] adds another option — the walk engines price every
   ring hop through these queries, so the boxes dominate their allocation
   profile.  The settled check is the same condition [advance] tests. *)
let settled_state t src dst =
  let st =
    match Hashtbl.find t.spf_cache src with
    | st -> st
    | exception Not_found ->
      let st = new_spf t src in
      Hashtbl.replace t.spf_cache src st;
      st
  in
  if not (st.complete || st.settled.(dst)) then advance t st ~until:(Some dst);
  st

(* -- targeted invalidation ----------------------------------------------

   The old engine bumped a global version on every event, discarding all
   cached trees.  Instead, each event drops exactly the trees it can have
   changed:

   - fail_link (u,v):   a tree changes only if the edge carried a label
                        (parent.(v) = u or parent.(u) = v).  Removing a
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
  Hashtbl.filter_map_inplace
    (fun _src st ->
      if pred st then begin
        recycle t st;
        None
      end
      else Some st)
    t.spf_cache

let tree_uses_link (st : spf) u v = st.parent.(v) = u || st.parent.(u) = v

let link_could_improve (st : spf) u v w =
  let du = st.dist.(u) and dv = st.dist.(v) in
  du +. w < dv || dv +. w < du
  || (du +. w = dv && st.hops.(u) + 1 < st.hops.(v))
  || (dv +. w = du && st.hops.(v) + 1 < st.hops.(u))

let invalidate_link_down t u v = drop_trees t (fun st -> tree_uses_link st u v)

let invalidate_link_up t u v =
  if link_alive t u v then begin
    let w = Graph.latency t.g u v in
    drop_trees t (fun st ->
        if st.complete || (st.settled.(u) && st.settled.(v)) then
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
  if not (Hashtbl.mem t.failed_routers r) then begin
    Hashtbl.add t.failed_routers r ();
    List.iter (fun (v, _) -> set_adj t r v false) (Graph.neighbors t.g r);
    invalidate_router_down t r;
    notify t (Router_down r)
  end

let restore_router t r =
  if Hashtbl.mem t.failed_routers r then begin
    Hashtbl.remove t.failed_routers r;
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
    let st = settle_to t src dst in
    if st.dist.(dst) < infinity then Some st.dist.(dst) else None
  end

let path t src dst =
  if not (router_alive t src && router_alive t dst) then None
  else begin
    let st = settle_to t src dst in
    if st.dist.(dst) = infinity then None
    else begin
      (* Every ancestor of a labeled node is settled, so the parent chain is
         complete even in a partial tree. *)
      let rec walk acc v = if v = src then src :: acc else walk (v :: acc) st.parent.(v) in
      Some (walk [] dst)
    end
  end

let reachable t src dst =
  router_alive t src && router_alive t dst
  && (settle_to t src dst).dist.(dst) < infinity

let distance_hops t src dst =
  if not (router_alive t src && router_alive t dst) then None
  else begin
    let st = settle_to t src dst in
    if st.dist.(dst) < infinity then Some st.hops.(dst) else None
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
    if st.dist.(dst) < infinity then st.hops.(dst) else -1
  end

(* Fused pricing for the walk engines: one settle per hop, the latency
   accumulated straight into a float-array register (never crossing a
   module boundary as a boxed return), the hop count back as an immediate.
   This is the only truly allocation-free way to price a hop — even the
   NaN-sentinel form boxes its float on return. *)
let price_hop_into t src dst ~latency i =
  if not (router_alive t src && router_alive t dst) then -1
  else begin
    let st = settled_state t src dst in
    if st.dist.(dst) < infinity then begin
      latency.(i) <- latency.(i) +. st.dist.(dst);
      st.hops.(dst)
    end
    else -1
  end

let distance_latency = distance_to

let next_hop t src dst =
  match path t src dst with
  | None | Some [ _ ] -> None
  | Some (_ :: hop :: _) -> Some hop
  | Some [] -> None

let valid_source_route t = function
  | [] -> false
  | [ r ] -> router_alive t r
  | first :: _ as route ->
    router_alive t first
    &&
    let rec ok = function
      | a :: (b :: _ as rest) -> link_alive t a b && ok rest
      | [ _ ] | [] -> true
    in
    ok route

let live_link_count t =
  let count = ref 0 in
  Graph.iter_links t.g (fun { Graph.u; v; _ } -> if link_alive t u v then incr count);
  !count

let live_router_count t =
  let count = ref 0 in
  for r = 0 to Graph.n t.g - 1 do
    if router_alive t r then incr count
  done;
  !count

let lsa_flood_cost t = 2 * live_link_count t

let eccentricity_hops t src =
  let st = spf t src in
  let best = ref 0 in
  Array.iteri
    (fun v h -> if st.dist.(v) < infinity && h > !best then best := h)
    st.hops;
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
