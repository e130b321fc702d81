module Id = Rofl_idspace.Id
module Graph = Rofl_topology.Graph
module Metrics = Rofl_netsim.Metrics
open Types
open State

(* A resident knows L = 1 + |backups| consecutive clockwise neighbours
   spanning the arc d = distance(self, farthest).  With members uniform on
   the 2^128 ring, d/L estimates the mean gap, so N̂ = L·2^128/d.  A single
   node's estimate is noisy — the arc is an Erlang(L) draw, so factor-of-
   several outliers are routine — but the median over all residents
   concentrates tightly; every consumer (auto-tuner, doctor, tests) reads
   {!estimate_n}, never a per-node sample.  Arithmetic runs on {!Id.key}
   (the top 62 bits): arcs below key resolution only occur at populations
   ≫ 10^12, far past anything simulated here. *)

let two_pow_62 = 4.611686018427387904e18

let estimate_n_slot store s =
  if Store.succ_router store s < 0 then 1.0
  else begin
    let rid = Store.rid store s in
    let len = Store.succ_list_len store s in
    let l, far =
      if len > 0 then (len + 1, Store.succ_list_id store s (len - 1))
      else (1, Store.succ_rid store s)
    in
    if Id.equal far rid then 1.0
    else
      let dk = float_of_int (max 1 (Id.key (Id.distance rid far))) in
      float_of_int l *. two_pow_62 /. dk
  end

let estimate_n t =
  let acc = ref [] in
  for router = 0 to Graph.n t.graph - 1 do
    let sh = shd t router in
    Store.iter_router sh.store router (fun s ->
        acc := estimate_n_slot sh.store s :: !acc)
  done;
  let xs = List.sort Float.compare !acc in
  let n = List.length xs in
  if n = 0 then 0.0 else List.nth xs (n / 2)

(* Auto mode derives the probe period and successor-list length from what
   the protocol itself can observe, instead of the static config knobs:

   - churn rate λ̂ (deaths per member per ms), from announced departures
     plus failover detections, normalised by N̂ and smoothed by an EWMA;
   - probe-period multiplier m = clamp(1..16, P*/period) where
     P* = ε/λ̂ keeps the expected stale-successor fraction under ε — the
     churn lab's staleness SLO;
   - backup-list target ⌈log2 N̂⌉−1, never below the static
     [succ_list_len - 1]: longer lists ride along in Pred_info replies, so
     widening them costs no extra messages, only probe-reply bytes.

   Runs once per global round; the O(members·log) median is fine at lab
   scale and auto mode is opt-in. *)

let stale_eps = 0.02

let auto_retune t ~now =
  t.auto_rounds <- t.auto_rounds + 1;
  let nhat = estimate_n t in
  t.auto_nhat <- nhat;
  let deaths =
    t.leaves_done
    + Array.fold_left (fun acc sh -> acc + Metrics.get sh.s_metrics Metrics.Failovers) 0 t.sh
  in
  let dt = now -. t.auto_last_ms in
  if t.auto_last_ms > 0.0 && dt > 0.0 && nhat >= 1.0 then begin
    let raw = float_of_int (deaths - t.auto_last_deaths) /. (nhat *. dt) in
    t.auto_rate <-
      (if t.auto_rounds <= 2 then raw else (0.7 *. t.auto_rate) +. (0.3 *. raw))
  end;
  t.auto_last_deaths <- deaths;
  t.auto_last_ms <- now;
  t.auto_mult <-
    (if t.auto_rounds <= 4 then 1.0 (* warm up on the static cadence *)
     else if t.auto_rate <= 0.0 then 16.0
     else
       Float.max 1.0
         (Float.min 16.0 (stale_eps /. t.auto_rate /. t.cfg.stabilize_period_ms)));
  t.auto_sl_limit <-
    (let static = succ_list_len - 1 in
     if nhat < 2.0 then static
     else
       let l = int_of_float (ceil (log nhat /. log 2.0)) - 1 in
       min (max static l) (Store.cap_list (shd t 0).store))

let auto_state t =
  if t.cfg.stabilize_auto then Some (t.auto_nhat, t.auto_mult, t.auto_sl_limit)
  else None


(* Auto mode sizes successor-list headroom from the bootstrap population:
   the per-resident target is ~log2(N̂), so give the store room to grow
   lists beyond the static length as estimates come in. *)
let cap_list cfg ~population =
  let static = succ_list_len - 1 in
  if not cfg.stabilize_auto then static
  else
    let m = float_of_int (population + 1) in
    max static (int_of_float (ceil (log m /. log 2.0)))
