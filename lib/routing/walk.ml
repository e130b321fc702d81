module Id = Rofl_idspace.Id

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
  type verdict

  val max_steps : st -> int
  val restart_limit : st -> int
  val horizon : [ `Persistent | `Per_move ]
  val arrived : st -> verdict option
  val prepare : st -> unit
  val stale_commit : st -> bool
  val select : st -> bool
  val target : st -> Id.t
  val picked_id : st -> Id.t
  val deliver_here : st -> verdict option
  val commit : st -> bool
  val exhausted : st -> bool
  val follow : st -> verdict option
  val no_candidate : st -> verdict
  val settle : st -> verdict
  val stuck : st -> verdict
end

module Make (S : SUBSTRATE) = struct
  let run st =
    let max_steps = S.max_steps st in
    let restart_limit = S.restart_limit st in
    let target = S.target st in
    (* [best_id] is the identifier the walk has committed to; under
       [`Persistent] only a candidate strictly closer to the target replaces
       the committed route.  The cleared-horizon register is [succ target]:
       it is the unique identifier at maximal clockwise distance from the
       target, so "closer than the sentinel" accepts exactly the candidates
       the seed's materialised max-distance register accepted — without
       allocating a distance per comparison.  [committed] says whether the
       substrate's route register holds a route; position, selection and
       route all live in the substrate's registers, so an iteration that
       neither terminates nor restarts allocates nothing here. *)
    let sentinel = Id.succ_id target in
    let rec loop best_id committed restarts guard =
      if guard > max_steps then S.stuck st
      else
        match S.arrived st with
        | Some v -> v
        | None ->
          if ((not committed) || S.exhausted st)
             && restarts < restart_limit && S.stale_commit st
          then
            (* Stale pointer pruned (NACK): restart from here with a cleared
               horizon. *)
            loop sentinel false (restarts + 1) (guard + 1)
          else begin
            S.prepare st;
            match S.arrived st with
            | Some v -> v
            | None ->
              if not (S.select st) then S.no_candidate st
              else (
                match S.deliver_here st with
                | Some v -> v
                | None ->
                  let cid = S.picked_id st in
                  let commit_now =
                    match S.horizon with
                    | `Per_move -> true
                    | `Persistent -> Id.closer_clockwise ~target cid best_id
                  in
                  if commit_now then
                    if S.commit st then advance cid restarts guard else S.stuck st
                  else if committed && not (S.exhausted st) then
                    (* Nothing closer here; keep following the committed
                       route. *)
                    advance best_id restarts guard
                  else S.settle st)
          end
    and advance best_id restarts guard =
      match S.follow st with
      | Some v -> v
      | None -> loop best_id true restarts (guard + 1)
    in
    loop sentinel false 0 0
end
