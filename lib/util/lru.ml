(* Doubly-linked list threaded through a hash table.  [head] is the
   most-recently-used end, [tail] the eviction end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { cap = capacity; table = Hashtbl.create 64; head = None; tail = None }

let length c = Hashtbl.length c.table

let unlink c node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> c.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> c.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front c node =
  node.next <- c.head;
  node.prev <- None;
  (match c.head with
   | Some h -> h.prev <- Some node
   | None -> c.tail <- Some node);
  c.head <- Some node

let promote c node =
  unlink c node;
  push_front c node

let find c k =
  match Hashtbl.find_opt c.table k with
  | None -> None
  | Some node ->
    promote c node;
    Some node.value

let evict_one c =
  match c.tail with
  | None -> None
  | Some node ->
    unlink c node;
    Hashtbl.remove c.table node.key;
    Some (node.key, node.value)

let put c k v =
  if c.cap = 0 then Some (k, v)
  else
    match Hashtbl.find_opt c.table k with
    | Some node ->
      node.value <- v;
      promote c node;
      None
    | None ->
      let evicted = if Hashtbl.length c.table >= c.cap then evict_one c else None in
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.add c.table k node;
      push_front c node;
      evicted

let remove c k =
  match Hashtbl.find_opt c.table k with
  | None -> ()
  | Some node ->
    unlink c node;
    Hashtbl.remove c.table k

