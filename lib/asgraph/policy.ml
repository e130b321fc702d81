let inf = max_int

type t = {
  g : Asgraph.t;
  bfs_cache : (int, int array) Hashtbl.t; (* per source, all-links BFS *)
  (* [bgp_distance]'s scratch, sized on the first query (empty until then).
     The destination's customer-route lengths are valid where [cust_mark]
     equals [stamp], the memoised best route of an ancestor of the source
     where [best_mark] does; [queue] holds the destination's climb.  A
     policy belongs to one task, like the interdomain [Level]'s routing
     scratch, so the scratch is never shared. *)
  mutable cust : int array;
  mutable cust_mark : int array;
  mutable best : int array;
  mutable best_mark : int array;
  mutable queue : int array;
  mutable stamp : int;
}

let create g =
  {
    g;
    bfs_cache = Hashtbl.create 64;
    cust = [||];
    cust_mark = [||];
    best = [||];
    best_mark = [||];
    queue = [||];
    stamp = 0;
  }

let rec push_providers t dx tail = function
  | [] -> tail
  | p :: rest ->
    if t.cust_mark.(p) = t.stamp then push_providers t dx tail rest
    else begin
      t.cust_mark.(p) <- t.stamp;
      t.cust.(p) <- dx + 1;
      t.queue.(tail) <- p;
      push_providers t dx (tail + 1) rest
    end

let rec drain t head tail =
  if head < tail then begin
    let x = t.queue.(head) in
    drain t (head + 1) (push_providers t t.cust.(x) tail (Asgraph.providers t.g x))
  end

(* Customer routes towards [d]: every ancestor of [d], at its climb
   distance, breadth-first over provider edges. *)
let climb_from t d =
  if Array.length t.cust = 0 then begin
    let n = Asgraph.n t.g in
    t.cust <- Array.make n 0;
    t.cust_mark <- Array.make n 0;
    t.best <- Array.make n 0;
    t.best_mark <- Array.make n 0;
    t.queue <- Array.make n 0
  end;
  t.stamp <- t.stamp + 1;
  t.cust.(d) <- 0;
  t.cust_mark.(d) <- t.stamp;
  t.queue.(0) <- d;
  drain t 0 1

let cust_route t x = if t.cust_mark.(x) = t.stamp then t.cust.(x) else inf

(* One peer hop onto a customer route. *)
let rec peer_route t acc = function
  | [] -> acc
  | p :: rest ->
    let c = cust_route t p in
    peer_route t (if c <> inf && c + 1 < acc then c + 1 else acc) rest

(* Gao–Rexford propagation, read upwards from [x]: [x] selects a customer
   route, then a peer route, then a provider route — one hop below a
   provider's own selected route; only within a class does length decide. *)
let rec best_route t x =
  if t.best_mark.(x) = t.stamp then t.best.(x)
  else begin
    let c = cust_route t x in
    let b =
      if c <> inf then c
      else
        let p = peer_route t inf (Asgraph.peers t.g x) in
        if p <> inf then p else provider_route t inf (Asgraph.providers t.g x)
    in
    t.best.(x) <- b;
    t.best_mark.(x) <- t.stamp;
    b
  end

and provider_route t acc = function
  | [] -> acc
  | q :: rest ->
    let b = best_route t q in
    provider_route t (if b <> inf && b + 1 < acc then b + 1 else acc) rest

let bgp_distance t ~src ~dst =
  if src = dst then Some 0
  else begin
    climb_from t dst;
    let b = best_route t src in
    if b = inf then None else Some b
  end

let shortest_distance t ~src ~dst =
  if src = dst then Some 0
  else begin
    let dist =
      match Hashtbl.find_opt t.bfs_cache src with
      | Some d -> d
      | None ->
        let n = Asgraph.n t.g in
        let d = Array.make n inf in
        let q = Queue.create () in
        d.(src) <- 0;
        Queue.push src q;
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          let relax y =
            if d.(y) = inf then begin
              d.(y) <- d.(x) + 1;
              Queue.push y q
            end
          in
          List.iter relax (Asgraph.providers t.g x);
          List.iter relax (Asgraph.customers t.g x);
          List.iter relax (Asgraph.peers t.g x);
          List.iter relax (Asgraph.backup_providers t.g x);
          List.iter relax (Asgraph.backup_customers t.g x)
        done;
        Hashtbl.add t.bfs_cache src d;
        d
    in
    if dist.(dst) = inf then None else Some dist.(dst)
  end

let climb t ?(blocked = fun _ -> false) ~allowed start =
  let dists = Hashtbl.create 32 in
  if allowed start && not (blocked start) then begin
    let q = Queue.create () in
    Hashtbl.replace dists start 0;
    Queue.push start q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      let dx = Hashtbl.find dists x in
      List.iter
        (fun p ->
          if allowed p && (not (blocked p)) && not (Hashtbl.mem dists p) then begin
            Hashtbl.replace dists p (dx + 1);
            Queue.push p q
          end)
        (Asgraph.providers t.g x)
    done
  end;
  dists

let vf_distance_within t ~root ?(blocked = fun _ -> false) src dst =
  let allowed =
    match root with
    | None -> fun _ -> true
    | Some r ->
      let cone = Asgraph.customer_cone t.g r in
      fun a -> Rofl_util.Bitset.mem cone a
  in
  if src = dst then (if allowed src && not (blocked src) then Some 0 else None)
  else begin
    let up_src = climb t ~blocked ~allowed src in
    let up_dst = climb t ~blocked ~allowed dst in
    let best = ref inf in
    (* Common-ancestor paths: up from src, down to dst. *)
    Hashtbl.iter
      (fun a da ->
        match Hashtbl.find_opt up_dst a with
        | Some db -> if da + db < !best then best := da + db
        | None -> ())
      up_src;
    (* One peer step at the top: src climbs to a, peer hop a->p, descend. *)
    Hashtbl.iter
      (fun a da ->
        List.iter
          (fun p ->
            if allowed p && not (blocked p) then begin
              match Hashtbl.find_opt up_dst p with
              | Some db -> if da + 1 + db < !best then best := da + 1 + db
              | None -> ()
            end)
          (Asgraph.peers t.g a))
      up_src;
    if !best = inf then None else Some !best
  end
