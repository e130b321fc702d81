module Id = Rofl_idspace.Id
module Network = Rofl_intra.Network
module Vnode = Rofl_core.Vnode
module Metrics = Rofl_netsim.Metrics

type t = {
  net : Network.t;
  g : Anycast.group;
  adj : (int, int list) Hashtbl.t; (* tree adjacency *)
  member_gw : (int32, int) Hashtbl.t;
}

let create net g = { net; g; adj = Hashtbl.create 16; member_gw = Hashtbl.create 8 }

let group t = t.g

let on_tree t r = Hashtbl.mem t.adj r

let add_node t r = if not (on_tree t r) then Hashtbl.add t.adj r []

let add_link t a b =
  if a <> b then begin
    add_node t a;
    add_node t b;
    let na = Hashtbl.find t.adj a in
    if not (List.mem b na) then Hashtbl.replace t.adj a (b :: na);
    let nb = Hashtbl.find t.adj b in
    if not (List.mem a nb) then Hashtbl.replace t.adj b (a :: nb)
  end

let join_member t ~gateway ~suffix =
  if Hashtbl.mem t.member_gw suffix then Error "suffix already in group"
  else begin
    let first = Hashtbl.length t.member_gw = 0 in
    let paint_msgs = ref 0 in
    if not first then begin
      (* Anycast towards the nearest member; paint the reverse path until it
         grafts onto the existing tree. *)
      let target = Anycast.member_id t.g ~suffix in
      let res =
        Network.lookup t.net ~from:gateway ~target ~category:Metrics.Join ~use_cache:true
          ~visited:true
      in
      paint_msgs := res.Network.msgs;
      (* The greedy walk may revisit routers; paint the loop-free reduction
         of the traversed path so the tree stays acyclic. *)
      let simplify hops =
        let rec go acc = function
          | [] -> List.rev acc
          | r :: rest ->
            if List.mem r acc then begin
              (* Cut the loop: roll back to r's first visit. *)
              let rec drop = function
                | x :: _ as l when x = r -> l
                | _ :: tl -> drop tl
                | [] -> [ r ]
              in
              go (drop acc) rest
            end
            else go (r :: acc) rest
        in
        go [] hops
      in
      (* Paint the reverse path link by link, stopping as soon as the
         request touches a router already on the tree (§5.2). *)
      let rec walk = function
        | a :: (b :: _ as rest) ->
          let b_was_on_tree = on_tree t b in
          add_link t a b;
          if b_was_on_tree then () else walk rest
        | [ r ] -> add_node t r
        | [] -> ()
      in
      walk (simplify res.Network.visited)
    end
    else add_node t gateway;
    (* The member also joins the ring with its (G, x) identifier so that
       future anycast joins can find the group. *)
    match
      Network.join_host t.net ~gateway ~id:(Anycast.member_id t.g ~suffix)
        ~cls:Vnode.Stable
    with
    | Ok o ->
      Hashtbl.replace t.member_gw suffix gateway;
      add_node t gateway;
      Ok (o.Network.join_msgs + !paint_msgs)
    | Error e -> Error e
  end

let tree_routers t = Hashtbl.fold (fun r _ acc -> r :: acc) t.adj []

let tree_links t =
  Hashtbl.fold
    (fun a ns acc -> List.fold_left (fun acc b -> if a < b then (a, b) :: acc else acc) acc ns)
    t.adj []

let members t =
  Hashtbl.fold (fun s _ acc -> Anycast.member_id t.g ~suffix:s :: acc) t.member_gw []
  |> List.sort Id.compare

let send t ~from_suffix =
  match Hashtbl.find_opt t.member_gw from_suffix with
  | None -> Error "sender is not a group member"
  | Some start ->
    (* Flood over tree links: each router forwards on every tree link except
       the arrival link. *)
    let seen = Hashtbl.create 16 in
    let msgs = ref 0 in
    let q = Queue.create () in
    Hashtbl.replace seen start ();
    Queue.push start q;
    while not (Queue.is_empty q) do
      let r = Queue.pop q in
      List.iter
        (fun nb ->
          if not (Hashtbl.mem seen nb) then begin
            Hashtbl.replace seen nb ();
            incr msgs;
            Metrics.charge_hop t.net.Network.metrics Metrics.Data nb;
            Queue.push nb q
          end)
        (match Hashtbl.find_opt t.adj r with Some ns -> ns | None -> [])
    done;
    let reached =
      Hashtbl.fold
        (fun _ gw acc -> if Hashtbl.mem seen gw then acc + 1 else acc)
        t.member_gw 0
    in
    Ok (!msgs, reached)

let check_tree t =
  let nodes = Hashtbl.length t.adj in
  if nodes = 0 then true
  else begin
    let edges = List.length (tree_links t) in
    (* Connectivity from an arbitrary node. *)
    let start = match tree_routers t with r :: _ -> r | [] -> -1 in
    let seen = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace seen start ();
    Queue.push start q;
    while not (Queue.is_empty q) do
      let r = Queue.pop q in
      List.iter
        (fun nb ->
          if not (Hashtbl.mem seen nb) then begin
            Hashtbl.replace seen nb ();
            Queue.push nb q
          end)
        (match Hashtbl.find_opt t.adj r with Some ns -> ns | None -> [])
    done;
    let connected = Hashtbl.length seen = nodes in
    let acyclic = edges = nodes - 1 in
    let members_covered =
      Hashtbl.fold (fun _ gw acc -> acc && Hashtbl.mem seen gw) t.member_gw true
    in
    connected && acyclic && members_covered
  end
