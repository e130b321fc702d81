module Id = Rofl_idspace.Id

type host_class = Router_default | Stable | Ephemeral

type t = {
  id : Id.t;
  key : int;
  host_class : host_class;
  mutable hosted_at : int;
  mutable succs : Pointer.t list;
  mutable preds : Pointer.t list;
  mutable alive : bool;
}

let create id host_class ~hosted_at =
  { id; key = Id.key id; host_class; hosted_at; succs = []; preds = []; alive = true }

let is_default v = v.host_class = Router_default

let first_succ v = match v.succs with [] -> None | p :: _ -> Some p

let first_pred v = match v.preds with [] -> None | p :: _ -> Some p

let sort_clockwise id ps =
  List.sort
    (fun (a : Pointer.t) (b : Pointer.t) -> Id.compare_dist id a.dst id b.dst)
    ps

let sort_counter_clockwise id ps =
  List.sort
    (fun (a : Pointer.t) (b : Pointer.t) -> Id.compare_dist a.dst id b.dst id)
    ps

let rec mem_dst id = function
  | [] -> false
  | (p : Pointer.t) :: rest -> Id.equal p.dst id || mem_dst id rest

let rec has_dup_dst = function
  | [] -> false
  | (p : Pointer.t) :: rest -> mem_dst p.dst rest || has_dup_dst rest

(* Groups hold at most a group size plus one pointers, so a quadratic scan
   beats hashing; a list without duplicates is returned as it is. *)
let dedup_by_dst ps =
  if not (has_dup_dst ps) then ps
  else
    List.rev
      (List.fold_left
         (fun kept (p : Pointer.t) -> if mem_dst p.dst kept then kept else p :: kept)
         [] ps)

let take n l =
  let rec go acc n = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: rest -> go (x :: acc) (n - 1) rest
  in
  go [] n l

let set_succs v ps = v.succs <- dedup_by_dst (sort_clockwise v.id ps)

let set_preds v ps = v.preds <- dedup_by_dst (sort_counter_clockwise v.id ps)

let add_succ v p ~max_group =
  v.succs <- take max_group (dedup_by_dst (sort_clockwise v.id (p :: v.succs)))

let add_pred v p ~max_group =
  v.preds <- take max_group (dedup_by_dst (sort_counter_clockwise v.id (p :: v.preds)))

let remove_succ v id = v.succs <- List.filter (fun (p : Pointer.t) -> not (Id.equal p.dst id)) v.succs

let drop_pointers_if v doomed =
  let count = ref 0 in
  let keep p = if doomed p then begin incr count; false end else true in
  v.succs <- List.filter keep v.succs;
  v.preds <- List.filter keep v.preds;
  !count

let state_entries v = List.length v.succs + List.length v.preds

let host_class_to_string = function
  | Router_default -> "router-default"
  | Stable -> "stable"
  | Ephemeral -> "ephemeral"
