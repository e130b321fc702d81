(* Instrumenting inline (a sweep at every departure, a membership probe at
   every pointer write) would race under sharding, so shards log facts
   privately, departures are logged globally, and [sync] merges the logs in
   a K-independent order and replays the marking rules over a mirror. *)

module Id = Rofl_idspace.Id
module Shard = Rofl_netsim.Shard
open Types

(* The bootstrap ring [members], sorted by identifier: every member
   admitted, each pointing at the next. *)
let create ~hint members =
  let o =
    { ostates = Hashtbl.create hint; omarks = Hashtbl.create 16; owindows = []; departs = [] }
  in
  let m = Array.length members in
  Array.iteri
    (fun i (rid, _) ->
      Hashtbl.replace o.ostates rid
        { o_mem = true; o_succ = Some (fst members.((i + 1) mod m)); o_pointed = [];
          o_ever = true })
    members;
  Array.iteri
    (fun i (rid, _) ->
      let sid, _ = members.((i + 1) mod m) in
      let st = Hashtbl.find o.ostates sid in
      st.o_pointed <- rid :: st.o_pointed)
    members;
  o

let log sh ev = sh.olog <- ev :: sh.olog

let ostate t id =
  match Hashtbl.find_opt t.oracle.ostates id with
  | Some st -> st
  | None ->
    let st = { o_mem = false; o_succ = None; o_pointed = []; o_ever = false } in
    Hashtbl.replace t.oracle.ostates id st;
    st

(* Was this identifier ever admitted (bootstrap, or a join that passed the
   gateway)?  No oracle sync needed: admission marks the bit directly from
   global context.  A pointed-at identifier that was never admitted can only
   come from a fabricated protocol message — the poison-residency signal. *)
let ever_member t id =
  match Hashtbl.find_opt t.oracle.ostates id with
  | Some st -> st.o_ever
  | None -> false

let o_unpoint t holder =
  let hst = ostate t holder in
  (match hst.o_succ with
   | Some old ->
     let ost = ostate t old in
     ost.o_pointed <- List.filter (fun h -> not (Id.equal h holder)) ost.o_pointed
   | None -> ());
  hst.o_succ <- None

let o_point t holder succ =
  o_unpoint t holder;
  (ostate t holder).o_succ <- succ;
  match succ with
  | Some s ->
    let ost = ostate t s in
    ost.o_pointed <- holder :: ost.o_pointed
  | None -> ()

(* A holder whose successor pointer names a departed identifier is "stale"
   from the departure until the pointer is repointed at a live member. *)
let o_depart t time id =
  let st = ostate t id in
  st.o_mem <- false;
  Hashtbl.remove t.oracle.omarks id;
  o_unpoint t id;
  List.iter
    (fun h ->
      if not (Hashtbl.mem t.oracle.omarks h) then
        Hashtbl.replace t.oracle.omarks h time)
    st.o_pointed

let o_repoint t time holder succ =
  o_point t holder succ;
  match succ with
  | Some s when (ostate t s).o_mem -> (
    match Hashtbl.find_opt t.oracle.omarks holder with
    | Some since ->
      t.oracle.owindows <- (time -. since) :: t.oracle.owindows;
      Hashtbl.remove t.oracle.omarks holder
    | None -> ())
  | Some _ | None -> ()

(* Merge the shard logs and the departure log into one chronological stream
   and replay it.  The order is K-independent: time first, joins before
   repoints before departures at one instant, identifiers and per-stream
   positions after that (one identifier's events never tie across shards —
   a rejoin elsewhere always completes strictly later than the departure). *)
let sync t =
  if t.oracle.departs <> [] || Array.exists (fun sh -> sh.olog <> []) t.sh then begin
    let entries = ref [] in
    Array.iteri
      (fun sx sh ->
        List.iteri
          (fun pos ev ->
            let time, rank, id =
              match ev with
              | O_join (tm, id) -> (tm, 0, id)
              | O_repoint (tm, id, _) | O_raw (tm, id, _) -> (tm, 1, id)
            in
            entries := (time, rank, id, sx, pos, Some ev) :: !entries)
          (List.rev sh.olog);
        sh.olog <- [])
      t.sh;
    List.iteri
      (fun pos (tm, id) -> entries := (tm, 2, id, -1, pos, None) :: !entries)
      (List.rev t.oracle.departs);
    t.oracle.departs <- [];
    let cmp (t1, r1, i1, s1, p1, _) (t2, r2, i2, s2, p2, _) =
      let c = Float.compare t1 t2 in
      if c <> 0 then c
      else
        let c = Int.compare r1 r2 in
        if c <> 0 then c
        else
          let c = Id.compare i1 i2 in
          if c <> 0 then c
          else
            let c = Int.compare s1 s2 in
            if c <> 0 then c else Int.compare p1 p2
    in
    List.iter
      (fun (tm, _, id, _, _, ev) ->
        match ev with
        | Some (O_join _) -> (ostate t id).o_mem <- true
        | Some (O_repoint (_, _, succ)) -> o_repoint t tm id succ
        | Some (O_raw (_, _, succ)) -> o_point t id succ
        | None -> o_depart t tm id)
      (List.sort cmp !entries)
  end

let stale_windows t =
  sync t;
  List.rev t.oracle.owindows

let stale_open t =
  sync t;
  Hashtbl.length t.oracle.omarks

let stale_open_since t =
  sync t;
  Hashtbl.fold (fun rid since acc -> (rid, since) :: acc) t.oracle.omarks []
  |> List.sort (fun (a, _) (b, _) -> Id.compare a b)

(* Every successor-pointer write funnels through here so the oracle log
   mirrors the actual ring. *)
let repoint t ~router s ptr =
  let sh = State.shd t router in
  log sh (O_repoint (State.now_at t router, Store.rid sh.store s, Option.map fst ptr));
  Store.set_succ sh.store s ptr

(* Admission marks [o_ever] directly, from global context. *)
let admit t id = (ostate t id).o_ever <- true

(* Whoever still points at [id] is stale from this instant. *)
let depart t id = t.oracle.departs <- (Shard.now t.coord, id) :: t.oracle.departs
