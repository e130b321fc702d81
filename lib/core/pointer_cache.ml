module Id = Rofl_idspace.Id
module Ring = Rofl_idspace.Ring
module Lru = Rofl_util.Lru

type t = {
  lru : (Id.t, Pointer.t) Lru.t;
  mutable index : Pointer.t Ring.t; (* same bindings, ring-ordered *)
}

let create ~capacity = { lru = Lru.create ~capacity; index = Ring.empty }

let capacity c = Lru.capacity c.lru

let length c = Lru.length c.lru

let insert c (p : Pointer.t) =
  (match Lru.put c.lru p.dst p with
   | Some (evicted_key, _) when not (Id.equal evicted_key p.dst) ->
     c.index <- Ring.remove evicted_key c.index
   | Some _ | None -> ());
  if Lru.mem c.lru p.dst then c.index <- Ring.add p.dst p c.index

let find c id = Lru.find c.lru id

let best_match c ~cur ~target =
  (* Exact hit first, else the ring predecessor of target (closest not
     past), accepted only if it improves on cur. *)
  match Ring.find target c.index with
  | Some p ->
    ignore (Lru.find c.lru target);
    Some p
  | None ->
    (match Ring.predecessor target c.index with
     | Some (id, p) when Id.between_incl cur id target ->
       ignore (Lru.find c.lru id);
       Some p
     | Some _ | None -> None)

let remove c id =
  Lru.remove c.lru id;
  c.index <- Ring.remove id c.index

let drop_if c doomed =
  let victims =
    Lru.fold c.lru ~init:[] ~f:(fun acc id p -> if doomed p then id :: acc else acc)
  in
  List.iter (remove c) victims;
  List.length victims

let iter c f = Lru.iter c.lru (fun _ p -> f p)

let clear c =
  Lru.clear c.lru;
  c.index <- Ring.empty

let resize c ~capacity =
  Lru.resize c.lru ~capacity;
  (* Rebuild the ring index to drop evicted entries. *)
  let fresh = Lru.fold c.lru ~init:Ring.empty ~f:(fun acc id p -> Ring.add id p acc) in
  c.index <- fresh

let audit c =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let lru_n = Lru.length c.lru and idx_n = Ring.cardinal c.index in
  if lru_n <> idx_n then bad "lru holds %d entries, ring index %d" lru_n idx_n;
  Lru.iter c.lru (fun id (p : Pointer.t) ->
      match Ring.find id c.index with
      | None -> bad "%s in lru but missing from ring index" (Id.to_short_string id)
      | Some (q : Pointer.t) ->
        if not (Id.equal q.dst p.dst && q.dst_router = p.dst_router) then
          bad "%s bound to different pointers in lru and ring index"
            (Id.to_short_string id));
  Ring.iter
    (fun id _ ->
      if not (Lru.mem c.lru id) then
        bad "%s in ring index but missing from lru" (Id.to_short_string id))
    c.index;
  List.rev !problems
