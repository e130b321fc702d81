module Id = Rofl_idspace.Id

type host_class = Router_default | Stable | Ephemeral

(* The successor group is stored twice over one order, never as a list:
   [succ_ptrs.(i)] is the i-th nearest successor and [succ_cols.(2 i)],
   [succ_cols.(2 i + 1)] its destination's [Id.key] and hosting router, so
   a ranker reads both without leaving one flat [int array].  Every
   mutation below rebuilds the two arrays together. *)
type t = {
  id : Id.t;
  key : int;
  host_class : host_class;
  mutable hosted_at : int;
  mutable succ_cols : int array;
  mutable succ_ptrs : Pointer.t array;
  mutable preds : Pointer.t list;
  mutable alive : bool;
}

let create id host_class ~hosted_at =
  {
    id;
    key = Id.key id;
    host_class;
    hosted_at;
    succ_cols = [||];
    succ_ptrs = [||];
    preds = [];
    alive = true;
  }

let is_default v = v.host_class = Router_default

let mark_dead v = v.alive <- false

let succ_count v = Array.length v.succ_ptrs

let succs v = Array.to_list v.succ_ptrs

let first_succ v = if Array.length v.succ_ptrs = 0 then None else Some v.succ_ptrs.(0)

let first_pred v = match v.preds with [] -> None | p :: _ -> Some p

(* Install a successor group already in ring order: the only writer of the
   two arrays. *)
let install v (ptrs : Pointer.t array) =
  let cols = Array.make (2 * Array.length ptrs) 0 in
  Array.iteri
    (fun i (p : Pointer.t) ->
      cols.(2 * i) <- Id.key p.dst;
      cols.((2 * i) + 1) <- p.dst_router)
    ptrs;
  v.succ_cols <- cols;
  v.succ_ptrs <- ptrs

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

let set_succs ?max_group v ps =
  let group = dedup_by_dst (sort_clockwise v.id ps) in
  let group = match max_group with Some n -> take n group | None -> group in
  install v (Array.of_list group)

let set_preds v ps = v.preds <- dedup_by_dst (sort_counter_clockwise v.id ps)

(* The group is sorted with one pointer per destination, so inserting [p]
   at its clockwise rank -- replacing a pointer to the same destination --
   and trimming to [max_group] is exactly a stable re-sort of [p :: group]
   deduplicated keep-first, without building the list. *)
let add_succ v (p : Pointer.t) ~max_group =
  let old = v.succ_ptrs in
  let n = Array.length old in
  let rec rank i =
    if i < n && Id.compare_dist v.id old.(i).dst v.id p.dst < 0 then rank (i + 1) else i
  in
  let i = rank 0 in
  let replaces = i < n && Id.equal old.(i).dst p.dst in
  let len = min max_group (if replaces then n else n + 1) in
  if len <= 0 then install v [||]
  else
    install v
      (Array.init len (fun j ->
           if j < i then old.(j)
           else if j = i then p
           else if replaces then old.(j)
           else old.(j - 1)))

let add_pred v p ~max_group =
  v.preds <- take max_group (dedup_by_dst (sort_counter_clockwise v.id (p :: v.preds)))

(* Keep the successors [keep] accepts, in order, calling it once per
   successor in order; the arrays are rebuilt only when one goes.  Returns
   how many went. *)
let filter_succs v keep =
  let ptrs = v.succ_ptrs in
  let n = Array.length ptrs in
  let rec first_gone i = if i = n || not (keep ptrs.(i)) then i else first_gone (i + 1) in
  let gone = first_gone 0 in
  if gone = n then 0
  else begin
    let rev_kept = ref [] in
    for j = 0 to n - 1 do
      if j < gone || (j > gone && keep ptrs.(j)) then rev_kept := ptrs.(j) :: !rev_kept
    done;
    let kept = Array.of_list (List.rev !rev_kept) in
    install v kept;
    n - Array.length kept
  end

(* [List.filter], but the list itself when nothing goes. *)
let rec filter_shared keep = function
  | [] -> []
  | p :: rest as l ->
    let kept = keep p in
    let rest' = filter_shared keep rest in
    if not kept then rest' else if rest' == rest then l else p :: rest'

let drop_pointers_if v doomed =
  let count = ref (filter_succs v (fun p -> not (doomed p))) in
  let keep p = if doomed p then begin incr count; false end else true in
  v.preds <- filter_shared keep v.preds;
  !count

let filter_map_pointers v f =
  install v (Array.of_list (List.filter_map f (succs v)));
  v.preds <- List.filter_map f v.preds

let state_entries v = Array.length v.succ_ptrs + List.length v.preds

let audit v =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let n = Array.length v.succ_ptrs in
  if Array.length v.succ_cols <> 2 * n then
    bad "%d successor columns for %d successors" (Array.length v.succ_cols) n
  else
    Array.iteri
      (fun i (p : Pointer.t) ->
        if v.succ_cols.(2 * i) <> Id.key p.dst then
          bad "successor %d (%s) under a stale key" i (Id.to_short_string p.dst);
        if v.succ_cols.((2 * i) + 1) <> p.dst_router then
          bad "successor %d (%s) at router %d, column says %d" i (Id.to_short_string p.dst)
            p.dst_router
            v.succ_cols.((2 * i) + 1);
        if i > 0 && Id.compare_dist v.id v.succ_ptrs.(i - 1).dst v.id p.dst >= 0 then
          bad "successor %d (%s) out of ring order" i (Id.to_short_string p.dst))
      v.succ_ptrs;
  List.rev !problems

let host_class_to_string = function
  | Router_default -> "router-default"
  | Stable -> "stable"
  | Ephemeral -> "ephemeral"
