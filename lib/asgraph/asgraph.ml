module Bitset = Rofl_util.Bitset

type t = {
  size : int;
  providers : int list array;
  customers : int list array;
  peer_links : int list array;
  backup_up : int list array;
  backup_down : int list array;
  mutable derived : derived option;
}

(* Everything computed from the customer-provider edges, built aside and
   published whole by one store.  A graph shared across domains (the
   experiments memoise generated Internets) may race on its first use: a
   reader then sees either [None], and recomputes identical tables, or a
   complete record -- never a flag set ahead of its slots. *)
and derived = {
  cones : Bitset.t array;
  sizes : int array;  (* cardinal of each cone *)
  ups : int list array;  (* up-hierarchies, sorted by (cone size, AS) *)
}

let create n =
  if n <= 0 then invalid_arg "Asgraph.create: need at least one AS";
  {
    size = n;
    providers = Array.make n [];
    customers = Array.make n [];
    peer_links = Array.make n [];
    backup_up = Array.make n [];
    backup_down = Array.make n [];
    derived = None;
  }

let n g = g.size

let check g a = if a < 0 || a >= g.size then invalid_arg "Asgraph: AS index out of range"

let invalidate g = g.derived <- None

let is_provider_edge g ~customer ~provider = List.mem provider g.providers.(customer)

let is_peer_edge g a b = List.mem b g.peer_links.(a)

let add_provider g ~customer ~provider =
  check g customer;
  check g provider;
  if customer = provider then invalid_arg "Asgraph.add_provider: self-edge";
  if is_provider_edge g ~customer ~provider then
    invalid_arg "Asgraph.add_provider: duplicate edge";
  g.providers.(customer) <- provider :: g.providers.(customer);
  g.customers.(provider) <- customer :: g.customers.(provider);
  invalidate g

let add_peer g a b =
  check g a;
  check g b;
  if a = b then invalid_arg "Asgraph.add_peer: self-edge";
  if is_peer_edge g a b then invalid_arg "Asgraph.add_peer: duplicate edge";
  g.peer_links.(a) <- b :: g.peer_links.(a);
  g.peer_links.(b) <- a :: g.peer_links.(b)

let add_backup g ~customer ~provider =
  check g customer;
  check g provider;
  if customer = provider then invalid_arg "Asgraph.add_backup: self-edge";
  if List.mem provider g.backup_up.(customer) then
    invalid_arg "Asgraph.add_backup: duplicate edge";
  g.backup_up.(customer) <- provider :: g.backup_up.(customer);
  g.backup_down.(provider) <- customer :: g.backup_down.(provider)

let providers g a =
  check g a;
  g.providers.(a)

let customers g a =
  check g a;
  g.customers.(a)

let peers g a =
  check g a;
  g.peer_links.(a)

let backup_providers g a =
  check g a;
  g.backup_up.(a)

let backup_customers g a =
  check g a;
  g.backup_down.(a)

let multihomed g a = List.length (providers g a) > 1

(* Kahn's algorithm over customer->provider edges; providers come first in
   the returned order. *)
let topo_order_result g =
  let indegree = Array.make g.size 0 in
  (* Edge provider -> customer for "providers first" ordering. *)
  for a = 0 to g.size - 1 do
    indegree.(a) <- List.length g.providers.(a)
  done;
  let q = Queue.create () in
  Array.iteri (fun a d -> if d = 0 then Queue.push a q) indegree;
  let order = Array.make g.size (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty q) do
    let p = Queue.pop q in
    order.(!filled) <- p;
    incr filled;
    List.iter
      (fun c ->
        indegree.(c) <- indegree.(c) - 1;
        if indegree.(c) = 0 then Queue.push c q)
      g.customers.(p)
  done;
  if !filled = g.size then Ok order else Error "customer-provider cycle detected"

let validate g =
  match topo_order_result g with
  | Error e -> Error e
  | Ok _ ->
    (* Peering symmetry is maintained by construction; double-check. *)
    let ok = ref true in
    for a = 0 to g.size - 1 do
      List.iter (fun b -> if not (is_peer_edge g b a) then ok := false) g.peer_links.(a)
    done;
    if !ok then Ok () else Error "asymmetric peer edge"

let topo_order g =
  match topo_order_result g with
  | Ok order -> order
  | Error e -> invalid_arg ("Asgraph.topo_order: " ^ e)

(* Lowest level first: by cone size, ties by AS index. *)
let by_cone sizes a b =
  let c = compare sizes.(a) sizes.(b) in
  if c <> 0 then c else compare a b

let compute_derived g =
  let order = topo_order g in
  let cones = Array.make g.size (Bitset.create 0) in
  (* Walk customers-first (reverse of providers-first order) so each cone can
     union its customers' finished cones. *)
  for i = g.size - 1 downto 0 do
    let a = order.(i) in
    let cone = Bitset.create g.size in
    Bitset.set cone a;
    List.iter (fun c -> Bitset.union_into ~dst:cone cones.(c)) g.customers.(a);
    cones.(a) <- cone
  done;
  let sizes = Array.map Bitset.cardinal cones in
  (* [seen.(a) = x] marks [a] as collected for [x]'s up-hierarchy. *)
  let seen = Array.make g.size (-1) in
  let ups =
    Array.init g.size (fun x ->
        let acc = ref [] in
        let rec climb a =
          if seen.(a) <> x then begin
            seen.(a) <- x;
            acc := a :: !acc;
            List.iter climb g.providers.(a)
          end
        in
        climb x;
        List.sort (by_cone sizes) !acc)
  in
  let d = { cones; sizes; ups } in
  g.derived <- Some d;
  d

let[@inline] derived g =
  match g.derived with Some d -> d | None -> compute_derived g

let customer_cone g a =
  check g a;
  (derived g).cones.(a)

let in_cone g ~root a = Bitset.mem (customer_cone g root) a

let cone_size g a =
  check g a;
  (derived g).sizes.(a)

let up_hierarchy g x =
  check g x;
  (derived g).ups.(x)

let tier1s g =
  let acc = ref [] in
  for a = g.size - 1 downto 0 do
    if g.providers.(a) = [] then acc := a :: !acc
  done;
  !acc

let least_common_ancestors g x y =
  let ux = up_hierarchy g x and uy = up_hierarchy g y in
  let uy_set = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace uy_set a ()) uy;
  let common = List.filter (Hashtbl.mem uy_set) ux in
  match common with
  | [] -> []
  | first :: _ ->
    let best = cone_size g first in
    List.filter (fun a -> cone_size g a = best) common

let edges_in_up_hierarchy g x =
  let members = up_hierarchy g x in
  let set = Hashtbl.create 32 in
  List.iter (fun a -> Hashtbl.replace set a ()) members;
  List.fold_left
    (fun acc a ->
      acc
      + List.length (List.filter (Hashtbl.mem set) g.providers.(a)))
    0 members
