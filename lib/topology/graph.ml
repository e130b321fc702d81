type link = { u : int; v : int; latency_ms : float }

type t = {
  size : int;
  adj : (int * float) list array;
  mutable nlinks : int;
}

let create n =
  if n <= 0 then invalid_arg "Graph.create: need at least one router";
  { size = n; adj = Array.make n []; nlinks = 0 }

let n g = g.size

let m g = g.nlinks

let check_router g r =
  if r < 0 || r >= g.size then invalid_arg "Graph: router index out of range"

(* Direct recursion: [has_link] and [latency] run on every walk hop, where a
   closure or an [option] per call would be the hop's only allocation. *)
let rec mem_link v = function
  | [] -> false
  | (w, _) :: rest -> w = v || mem_link v rest

let rec link_latency v = function
  | [] -> raise Not_found
  | (w, l) :: rest -> if w = v then l else link_latency v rest

let has_link g u v = mem_link v g.adj.(u)

let add_link g u v ~latency_ms =
  check_router g u;
  check_router g v;
  if u = v then invalid_arg "Graph.add_link: self-loop";
  if has_link g u v then invalid_arg "Graph.add_link: duplicate link";
  if latency_ms < 0.0 then invalid_arg "Graph.add_link: negative latency";
  g.adj.(u) <- (v, latency_ms) :: g.adj.(u);
  g.adj.(v) <- (u, latency_ms) :: g.adj.(v);
  g.nlinks <- g.nlinks + 1

let latency g u v =
  check_router g u;
  link_latency v g.adj.(u)

let neighbors g u =
  check_router g u;
  g.adj.(u)

let iter_links g f =
  for u = 0 to g.size - 1 do
    List.iter (fun (v, latency_ms) -> if u < v then f { u; v; latency_ms }) g.adj.(u)
  done

let links g =
  let acc = ref [] in
  iter_links g (fun l -> acc := l :: !acc);
  List.rev !acc

let bfs_distances g src ?(blocked = fun _ -> false) () =
  check_router g src;
  let dist = Array.make g.size max_int in
  if blocked src then dist
  else begin
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.push src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (v, _) ->
          if dist.(v) = max_int && not (blocked v) then begin
            dist.(v) <- dist.(u) + 1;
            Queue.push v q
          end)
        g.adj.(u)
    done;
    dist
  end

let connected_components g ?(blocked = fun _ -> false) () =
  let label = Array.make g.size (-1) in
  let count = ref 0 in
  for src = 0 to g.size - 1 do
    if label.(src) = -1 && not (blocked src) then begin
      let c = !count in
      incr count;
      let q = Queue.create () in
      label.(src) <- c;
      Queue.push src q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun (v, _) ->
            if label.(v) = -1 && not (blocked v) then begin
              label.(v) <- c;
              Queue.push v q
            end)
          g.adj.(u)
      done
    end
  done;
  (label, !count)

let is_connected g =
  let _, count = connected_components g () in
  count = 1

let diameter_hops g =
  let best = ref 0 in
  for src = 0 to g.size - 1 do
    let dist = bfs_distances g src () in
    Array.iter (fun d -> if d <> max_int && d > !best then best := d) dist
  done;
  !best
