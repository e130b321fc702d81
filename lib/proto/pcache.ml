module Id = Rofl_idspace.Id

type t = {
  cap : int;
  ids : Id.t array;
  routers : int array;
  stamp : float array;
  mutable len : int;
  quota : int;        (* max entries per router group, 0 = unbounded *)
  groups : int array; (* router -> group, [||] = ungrouped *)
}

let create ?(quota = 0) ?(groups = [||]) cap dummy =
  {
    cap;
    ids = Array.make (max cap 1) dummy;
    routers = Array.make (max cap 1) (-1);
    stamp = Array.make (max cap 1) 0.0;
    len = 0;
    quota;
    groups;
  }

let find c id =
  let rec go i = if i >= c.len then -1 else if Id.equal c.ids.(i) id then i else go (i + 1) in
  go 0

(* Would admitting a pointer hosted at [router] keep its group within the
   quota?  [except] is a slot about to be vacated (eviction or update) and
   is not counted.  Linear over the cache — tens of entries. *)
let admit_ok c ~except router =
  c.quota <= 0 || Array.length c.groups = 0
  ||
  let g = c.groups.(router) in
  let cnt = ref 0 in
  for j = 0 to c.len - 1 do
    if j <> except && c.groups.(c.routers.(j)) = g then incr cnt
  done;
  !cnt < c.quota

let group_quota_ok c =
  c.quota <= 0 || Array.length c.groups = 0
  ||
  let ok = ref true in
  for i = 0 to c.len - 1 do
    let g = c.groups.(c.routers.(i)) in
    let cnt = ref 0 in
    for j = 0 to c.len - 1 do
      if c.groups.(c.routers.(j)) = g then incr cnt
    done;
    if !cnt > c.quota then ok := false
  done;
  !ok

let insert c ~now id router =
  if c.cap > 0 then begin
    let i = find c id in
    if i >= 0 then begin
      if c.routers.(i) = router || admit_ok c ~except:i router then begin
        c.routers.(i) <- router;
        c.stamp.(i) <- now
      end
    end
    else begin
      let slot =
        if c.len < c.cap then c.len
        else begin
          let oldest = ref 0 in
          for j = 1 to c.len - 1 do
            if c.stamp.(j) < c.stamp.(!oldest) then oldest := j
          done;
          !oldest
        end
      in
      let except = if c.len < c.cap then -1 else slot in
      if admit_ok c ~except router then begin
        if c.len < c.cap then c.len <- c.len + 1;
        c.ids.(slot) <- id;
        c.routers.(slot) <- router;
        c.stamp.(slot) <- now
      end
    end
  end

let remove_at c i =
  (* Shift down to keep scan order deterministic under refreshes. *)
  for j = i to c.len - 2 do
    c.ids.(j) <- c.ids.(j + 1);
    c.routers.(j) <- c.routers.(j + 1);
    c.stamp.(j) <- c.stamp.(j + 1)
  done;
  c.len <- c.len - 1

let best_toward c ~target =
  let best = ref (-1) in
  for i = 0 to c.len - 1 do
    if
      !best < 0
      || Id.compare_dist c.ids.(i) target c.ids.(!best) target < 0
    then best := i
  done;
  !best
