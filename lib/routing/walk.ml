module Id = Rofl_idspace.Id

type ('pos, 'route, 'verdict) moved =
  | Stepped of 'pos * 'route
  | Finished of 'verdict
  | Blocked

(* Keep-first on ties: a later candidate replaces the incumbent only when
   strictly closer to the target, so enumeration order encodes precedence.
   Ranking compares identifiers with the allocation-free
   [Id.closer_clockwise] instead of materialising distances. *)
let best ~target ~id_of cands =
  List.fold_left
    (fun acc c ->
      match acc with
      | Some b when not (Id.closer_clockwise ~target (id_of c) (id_of b)) -> acc
      | Some _ | None -> Some c)
    None cands

module type SUBSTRATE = sig
  type st
  type pos
  type cand
  type route
  type verdict

  val max_steps : st -> int
  val restart_limit : st -> int
  val horizon : [ `Persistent | `Per_move ]
  val arrived : st -> pos -> verdict option
  val prepare : st -> pos -> pos
  val stale_commit : st -> pos -> bool
  val select : st -> pos -> cand option
  val target : st -> Id.t
  val cand_id : st -> cand -> Id.t
  val deliver_here : st -> pos -> cand -> verdict option
  val commit : st -> pos -> cand -> route option
  val exhausted : route -> bool
  val follow : st -> pos -> route -> (pos, route, verdict) moved
  val no_candidate : st -> pos -> verdict
  val settle : st -> pos -> verdict
  val stuck : st -> pos -> verdict
end

module Make (S : SUBSTRATE) = struct
  let run st ~start =
    let max_steps = S.max_steps st in
    let restart_limit = S.restart_limit st in
    let target = S.target st in
    (* [best_id] is the identifier the walk has committed to; under
       [`Persistent] only a candidate strictly closer to the target replaces
       the committed route.  The cleared-horizon register is [succ target]:
       it is the unique identifier at maximal clockwise distance from the
       target, so "closer than the sentinel" accepts exactly the candidates
       the seed's materialised max-distance register accepted — without
       allocating a distance per comparison. *)
    let sentinel = Id.succ_id target in
    let rec loop pos best_id committed restarts guard =
      if guard > max_steps then S.stuck st pos
      else
        match S.arrived st pos with
        | Some v -> v
        | None ->
          let exhausted_now =
            match committed with None -> true | Some r -> S.exhausted r
          in
          if exhausted_now && restarts < restart_limit && S.stale_commit st pos then
            (* Stale pointer pruned (NACK): restart from here with a cleared
               horizon. *)
            loop pos sentinel None (restarts + 1) (guard + 1)
          else begin
            let pos = S.prepare st pos in
            match S.arrived st pos with
            | Some v -> v
            | None ->
              (match S.select st pos with
               | None -> S.no_candidate st pos
               | Some c ->
                 (match S.deliver_here st pos c with
                  | Some v -> v
                  | None ->
                    let cid = S.cand_id st c in
                    let commit_now =
                      match S.horizon with
                      | `Per_move -> true
                      | `Persistent -> Id.closer_clockwise ~target cid best_id
                    in
                    if commit_now then (
                      match S.commit st pos c with
                      | None -> S.stuck st pos
                      | Some route -> advance pos cid route restarts guard)
                    else (
                      (* Nothing closer here; keep following the committed
                         route if any of it remains. *)
                      match committed with
                      | Some route when not (S.exhausted route) ->
                        advance pos best_id route restarts guard
                      | Some _ | None -> S.settle st pos)))
          end
    and advance pos best_id route restarts guard =
      match S.follow st pos route with
      | Blocked -> S.stuck st pos
      | Finished v -> v
      | Stepped (pos', route') -> loop pos' best_id (Some route') restarts (guard + 1)
    in
    loop start sentinel None 0 0
end
