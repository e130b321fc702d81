module Asgraph = Rofl_asgraph.Asgraph
module Policy = Rofl_asgraph.Policy

type t = Root | Real of int | Peer_group of int

(* An AS's provider climb: every ancestor with its climb distance, in two
   orders.  [anc]/[dist] hold them in breadth-first discovery order (see
   [build_climb]) -- [route_within] scans them, and the first equal-cost
   peak it offers wins, so this order decides ties.  [sorted]/[sorted_dist]
   hold the same pairs by ancestor, for binary search. *)
type climb = {
  anc : int array;
  dist : int array;
  sorted : int array;
  sorted_dist : int array;
}

type ctx = {
  g : Asgraph.t;
  policy : Policy.t;
  climbs : climb array;  (* [no_climb] until first asked *)
  reals : t list array;  (* [levels_for_real] memo; [] until first asked *)
  vas : int array array;
  vas_adj : int list array;
  (* [route_within]'s scratch: the destination's climb distances, valid
     where [mark] equals [stamp], the best offer so far, and the last
     route's inclusive AS path ([path_len] hops of [path], which grows on
     demand).  A ctx belongs to one [Net], and a [Net] to one task, so the
     scratch is never shared. *)
  mark : int array;
  mark_dist : int array;
  mutable stamp : int;
  mutable best_cost : int;
  mutable best_peak : int;
  mutable best_peer : int;
  mutable path : int array;
  mutable path_len : int;
}

let no_climb = { anc = [||]; dist = [||]; sorted = [||]; sorted_dist = [||] }

let make_ctx g =
  let n = Asgraph.n g in
  let tier1 = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace tier1 a ()) (Asgraph.tier1s g);
  let vas = ref [] and count = ref 0 in
  let vas_adj = Array.make n [] in
  for a = 0 to n - 1 do
    List.iter
      (fun b ->
        if a < b && not (Hashtbl.mem tier1 a && Hashtbl.mem tier1 b) then begin
          let v = !count in
          incr count;
          vas := [| a; b |] :: !vas;
          vas_adj.(a) <- v :: vas_adj.(a);
          vas_adj.(b) <- v :: vas_adj.(b)
        end)
      (Asgraph.peers g a)
  done;
  {
    g;
    policy = Policy.create g;
    climbs = Array.make n no_climb;
    reals = Array.make n [];
    vas = Array.of_list (List.rev !vas);
    vas_adj;
    mark = Array.make n 0;
    mark_dist = Array.make n 0;
    stamp = 0;
    best_cost = -1;
    best_peak = -1;
    best_peer = -1;
    path = Array.make 64 0;
    path_len = 0;
  }

let graph ctx = ctx.g

let policy ctx = ctx.policy

let vas_count ctx = Array.length ctx.vas

let vas_members ctx v = Array.to_list ctx.vas.(v)

let breadth ctx = function
  | Root -> max_int
  | Real a -> Asgraph.cone_size ctx.g a
  | Peer_group v ->
    Array.fold_left (fun acc m -> acc + Asgraph.cone_size ctx.g m) 0 ctx.vas.(v)

(* Order levels bottom-up; ctx-free tie-breaks keep it a total order. *)
let rank = function Real _ -> 0 | Peer_group _ -> 1 | Root -> 2

let compare a b =
  match (a, b) with
  | Root, Root -> 0
  | Real x, Real y -> Stdlib.compare x y
  | Peer_group x, Peer_group y -> Stdlib.compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let key ctx = function
  | Real a -> a
  | Peer_group v -> Asgraph.n ctx.g + v
  | Root -> Asgraph.n ctx.g + Array.length ctx.vas

let to_trace = function
  | Root -> Rofl_routing.Trace.Root
  | Real a -> Rofl_routing.Trace.As a
  | Peer_group v -> Rofl_routing.Trace.Virtual_as v

let to_string l = Rofl_routing.Trace.level_to_string (to_trace l)

let rec in_some_cone g ms x i =
  i < Array.length ms && (Asgraph.in_cone g ~root:(Array.unsafe_get ms i) x || in_some_cone g ms x (i + 1))

let member ctx level x =
  match level with
  | Root -> true
  | Real a -> Asgraph.in_cone ctx.g ~root:a x
  | Peer_group v -> in_some_cone ctx.g ctx.vas.(v) x 0

let rec members_all ctx outer ms i =
  i >= Array.length ms || (member ctx outer (Array.unsafe_get ms i) && members_all ctx outer ms (i + 1))

let subsumes ctx ~outer ~inner =
  match (outer, inner) with
  | Root, _ -> true
  | _, Root -> false
  | _, Real a -> member ctx outer a
  | _, Peer_group v -> members_all ctx outer ctx.vas.(v) 0

(* Breadth-first climb from [x]: each ancestor is recorded the first time
   it is reached, providers in [Asgraph.providers] order. *)
let build_climb ctx x =
  let q = Queue.create () and found = ref [ (x, 0) ] in
  Queue.push (x, 0) q;
  while not (Queue.is_empty q) do
    let cur, d = Queue.pop q in
    List.iter
      (fun p ->
        if not (List.mem_assoc p !found) then begin
          found := (p, d + 1) :: !found;
          Queue.push (p, d + 1) q
        end)
      (Asgraph.providers ctx.g cur)
  done;
  let pairs = Array.of_list (List.rev !found) in
  let sorted = Array.copy pairs in
  Array.sort Stdlib.compare sorted;
  {
    anc = Array.map fst pairs;
    dist = Array.map snd pairs;
    sorted = Array.map fst sorted;
    sorted_dist = Array.map snd sorted;
  }

let climb ctx x =
  let c = ctx.climbs.(x) in
  if c != no_climb then c
  else begin
    let c = build_climb ctx x in
    ctx.climbs.(x) <- c;
    c
  end

let rec search c a lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get c.sorted mid in
    if m = a then Array.unsafe_get c.sorted_dist mid
    else if m < a then search c a (mid + 1) hi
    else search c a lo mid
  end

(* Climb distance from [x] up to [a], or -1 if [a] is not an ancestor. *)
let up_dist ctx x a =
  let c = climb ctx x in
  search c a 0 (Array.length c.sorted)

let up_distance ctx x a =
  let d = up_dist ctx x a in
  if d < 0 then None else Some d

(* The next AS on the climb from [x] up to its ancestor [a]: the first of
   [x]'s providers one step nearer [a]. *)
let rec first_nearer ctx a da = function
  | [] -> invalid_arg "Level.climb_path: broken climb"
  | p :: rest -> if up_dist ctx p a = da - 1 then p else first_nearer ctx a da rest

let step_up ctx x a =
  let da = up_dist ctx x a in
  if da < 0 then invalid_arg "Level.climb_path: not an ancestor";
  first_nearer ctx a da (Asgraph.providers ctx.g x)

(* Writes the climb from [x] up to its ancestor [a] into the path at
   [i], [i + 1], ...: [x] first, [a] last. *)
let rec write_climb ctx x a i =
  Array.unsafe_set ctx.path i x;
  if x <> a then write_climb ctx (step_up ctx x a) a (i + 1)

(* Writes the same climb back to front, from [i] down: [x] at [i], then
   each step up one slot lower, stopping at [a], which is written only
   with [~top]. *)
let rec write_descent ctx x a ~top i =
  if x <> a then begin
    Array.unsafe_set ctx.path i x;
    write_descent ctx (step_up ctx x a) a ~top (i - 1)
  end
  else if top then Array.unsafe_set ctx.path i x

let reserve_path ctx len =
  if Array.length ctx.path < len then
    ctx.path <- Array.make (max len (2 * Array.length ctx.path)) 0;
  ctx.path_len <- len

let[@inline] marked ctx a =
  if Array.unsafe_get ctx.mark a = ctx.stamp then Array.unsafe_get ctx.mark_dist a else -1

(* First strictly cheaper offer wins: equal-cost peaks keep the earliest. *)
let[@inline] offer ctx cost a peer =
  if ctx.best_cost < 0 || cost < ctx.best_cost then begin
    ctx.best_cost <- cost;
    ctx.best_peak <- a;
    ctx.best_peer <- peer
  end

let rec offer_peers ctx level a da = function
  | [] -> ()
  | p :: rest ->
    if member ctx level p then begin
      let db = marked ctx p in
      if db >= 0 then offer ctx (da + 1 + db) a p
    end;
    offer_peers ctx level a da rest

(* The cost of the cheapest valley-free route from [src] to [dst] inside
   [level] (both members, [src <> dst]), or -1; its peak and peer hop are
   left in [best_peak]/[best_peer]. *)
let best_within ctx level src dst =
  let up_dst = climb ctx dst in
  ctx.stamp <- ctx.stamp + 1;
  for i = 0 to Array.length up_dst.anc - 1 do
    let a = Array.unsafe_get up_dst.anc i in
    ctx.mark.(a) <- ctx.stamp;
    ctx.mark_dist.(a) <- Array.unsafe_get up_dst.dist i
  done;
  let up_src = climb ctx src in
  ctx.best_cost <- -1;
  for i = 0 to Array.length up_src.anc - 1 do
    let a = Array.unsafe_get up_src.anc i in
    if member ctx level a then begin
      let da = Array.unsafe_get up_src.dist i in
      let db = marked ctx a in
      if db >= 0 then offer ctx (da + db) a (-1);
      offer_peers ctx level a da (Asgraph.peers ctx.g a)
    end
  done;
  ctx.best_cost

let route_within ctx level src dst =
  ctx.path_len <- 0;
  if src = dst then begin
    if member ctx level src then begin
      reserve_path ctx 1;
      ctx.path.(0) <- src;
      0
    end
    else -1
  end
  else if not (member ctx level src && member ctx level dst) then -1
  else begin
    let cost = best_within ctx level src dst in
    if cost >= 0 then begin
      (* The path has [cost + 1] ASes: the climb to the peak, then the
         descent (from the peer hop, when there is one) written from [dst]
         backwards. *)
      let peak = ctx.best_peak and peer = ctx.best_peer in
      reserve_path ctx (cost + 1);
      write_climb ctx src peak 0;
      if peer < 0 then write_descent ctx dst peak ~top:false cost
      else write_descent ctx dst peer ~top:true cost
    end;
    cost
  end

let path_length ctx = ctx.path_len

let path_hop ctx i =
  if i < 0 || i >= ctx.path_len then invalid_arg "Level.path_hop";
  Array.unsafe_get ctx.path i

let distance_within ctx level src dst =
  if src = dst then (if member ctx level src then 0 else -1)
  else if not (member ctx level src && member ctx level dst) then -1
  else best_within ctx level src dst

let mark_clear ctx = ctx.stamp <- ctx.stamp + 1

let mark ctx a = ctx.mark.(a) <- ctx.stamp

let is_marked ctx a = ctx.mark.(a) = ctx.stamp

let sort_levels ctx ls =
  List.sort_uniq
    (fun a b ->
      let c = Stdlib.compare (breadth ctx a) (breadth ctx b) in
      if c <> 0 then c else compare a b)
    ls

let levels_for_real ctx x =
  match ctx.reals.(x) with
  | _ :: _ as ls -> ls
  | [] ->
    let ups = Asgraph.up_hierarchy ctx.g x in
    let ls = sort_levels ctx (List.map (fun a -> Real a) ups) @ [ Root ] in
    ctx.reals.(x) <- ls;
    ls

let single_homed_chain ctx x =
  let rec chain a acc =
    match Asgraph.providers ctx.g a with
    | [] -> List.rev acc
    | providers ->
      let p = List.fold_left min (List.hd providers) providers in
      chain p (Real p :: acc)
  in
  chain x [ Real x ] @ [ Root ]

let peer_levels ctx x =
  let ups = Asgraph.up_hierarchy ctx.g x in
  let vs = List.concat_map (fun a -> ctx.vas_adj.(a)) ups in
  sort_levels ctx (List.map (fun v -> Peer_group v) vs)
