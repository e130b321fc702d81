module Pool = Rofl_util.Pool
module Heap = Rofl_util.Heap

(* Conservative parallel discrete-event coordinator.

   K engines hold disjoint event partitions.  Time advances in windows
   [clock, b): every engine executes its own events up to [b] (in parallel
   on the pool), then cross-partition messages buffered during the window
   are flushed into their destination engines.  The window bound is
   conservative — [b <= earliest_pending + window_ms], where [window_ms] is
   a lower bound on cross-partition latency supplied by the caller — so a
   message emitted inside the window is always delivered at or after the
   barrier that flushes it, never into a partition's already-executed past.

   Byte-identical determinism at any K rests on two pillars:
   - every event carries a content-derived key [(time, rail, seq)] and each
     engine pops in key order, so the merged execution order is a function
     of the event set alone, not of the partitioning or of buffer timing;
   - observable sampling (the monitor, the global queue-depth high-water
     mark) happens only at K-independent instants — global-event times and
     run horizons — never at the K-dependent window barriers in between. *)

type stats = {
  windows : int;        (* synchronisation windows executed *)
  executed : int array; (* events executed, per shard *)
  busy_s : float array; (* wall-clock seconds each shard spent executing *)
  stall_s : float;      (* summed wall-clock seconds shards idled at barriers *)
  elapsed_s : float;    (* wall-clock seconds inside [run_until] *)
}

(* Cross-shard messages one shard emitted during the current window, as
   flat columns in emission order: destination shard, event key, int and
   payload.  A send writes one slot and allocates nothing once the columns
   have grown to the window's traffic. *)
type 'e outbox = {
  mutable dst : int array;
  mutable time : float array;
  mutable rail : int array;
  mutable seq : int array;
  mutable arg : int array;
  mutable ev : 'e array;
  mutable len : int;
}

type 'e t = {
  engines : 'e Engine.t array;
  pool : Pool.t option;
  window_ms : float;
  (* outbox.(src): owned by shard [src]'s domain while a window runs and
     drained only by the coordinator between windows, so no locking. *)
  outbox : 'e outbox array;
  globals : (unit -> unit) Heap.t; (* (time, insertion order) *)
  next : float array; (* registers: [min_next] at 0, earliest global at 1 *)
  mutable clock : float;           (* merged barrier clock *)
  mutable monitor : (float -> unit) option;
  mutable peak : int;              (* max total pending at sync points *)
  mutable windows_run : int;
  busy_s : float array;
  mutable stall_s : float;
  mutable elapsed_s : float;
}

let new_outbox () =
  { dst = [||]; time = [||]; rail = [||]; seq = [||]; arg = [||]; ev = [||]; len = 0 }

let create ?pool ~exec ~shards ~window_ms () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if shards > 1 && not (window_ms > 0.0) then
    invalid_arg "Shard.create: window_ms must be positive with shards > 1";
  {
    engines = Array.init shards (fun _ -> Engine.create ~exec);
    pool;
    window_ms;
    outbox = Array.init shards (fun _ -> new_outbox ());
    globals = Heap.create ();
    next = [| infinity; infinity |];
    clock = 0.0;
    monitor = None;
    peak = 0;
    windows_run = 0;
    busy_s = Array.make shards 0.0;
    stall_s = 0.0;
    elapsed_s = 0.0;
  }

let engine t i = t.engines.(i)

let now t = t.clock

let set_monitor t f = t.monitor <- Some f

let clear_monitor t = t.monitor <- None

(* Flushed and unused payload slots hold an immediate dummy, so the
   columns keep no delivered payload reachable (the heap's [vacated]);
   every read is guarded by [len]. *)
let vacated : 'e = Obj.magic 0

let grow o =
  let cap = if o.len = 0 then 64 else 2 * o.len in
  let extend a fill = let b = Array.make cap fill in Array.blit a 0 b 0 o.len; b in
  o.dst <- extend o.dst 0;
  o.time <- extend o.time 0.0;
  o.rail <- extend o.rail 0;
  o.seq <- extend o.seq 0;
  o.arg <- extend o.arg 0;
  o.ev <- extend o.ev vacated

let[@inline] post o ~dst ~time_ms ~rail ~seq ~arg e =
  if o.len = Array.length o.dst then grow o;
  let i = o.len in
  o.dst.(i) <- dst;
  o.time.(i) <- time_ms;
  o.rail.(i) <- rail;
  o.seq.(i) <- seq;
  o.arg.(i) <- arg;
  o.ev.(i) <- e;
  o.len <- i + 1

let[@inline] send t ~src ~dst ~time_ms ~rail ~seq ~arg e =
  if src >= 0 && src <> dst then
    (* Emitted from inside shard [src]'s window: buffer until the barrier.
       Conservatism (cross-shard latency >= window_ms) guarantees [time_ms]
       is at or after the barrier that will flush it. *)
    post t.outbox.(src) ~dst ~time_ms ~rail ~seq ~arg e
  else
    (* Same shard, or global context (src = -1, every shard parked at the
       barrier): straight into the destination queue. *)
    Engine.schedule_keyed t.engines.(dst) ~time_ms ~rail ~seq ~arg e

let at_global t ~time_ms f =
  if time_ms < t.clock then invalid_arg "Shard.at_global: time in the past";
  Heap.push t.globals time_ms f

(* Deliver every buffered message in emission order, vacating its slot. *)
let flush t =
  Array.iter
    (fun o ->
      for i = 0 to o.len - 1 do
        Engine.schedule_keyed t.engines.(o.dst.(i)) ~time_ms:o.time.(i) ~rail:o.rail.(i)
          ~seq:o.seq.(i) ~arg:o.arg.(i) o.ev.(i);
        o.ev.(i) <- vacated
      done;
      o.len <- 0)
    t.outbox

(* Is any event pending on any engine?  If so, the earliest one's time is
   left in [next.(0)]. *)
let min_next t =
  t.next.(0) <- infinity;
  let any = ref false in
  for i = 0 to Array.length t.engines - 1 do
    if Engine.next_time_into t.engines.(i) t.next then any := true
  done;
  !any

let[@inline] run_engine e ~inclusive b =
  if inclusive then Engine.run_until e b else Engine.run_before e b

(* One pass: every engine executes its events up to [b], inclusive or
   not.  Parallel when a pool with headroom is attached; engine state is
   shard-private by the caller's contract, and [Pool.map]'s join gives the
   coordinator a happens-before on everything the workers wrote (engine
   queues, outboxes, busy counters). *)
let pass t ~inclusive b =
  let k = Array.length t.engines in
  match t.pool with
  | Some pool when k > 1 && Pool.jobs pool > 1 ->
    let busy0 = Array.fold_left ( +. ) 0.0 t.busy_s in
    let t0 = Unix.gettimeofday () in
    ignore
      (Pool.map pool
         (fun i ->
           let s = Unix.gettimeofday () in
           run_engine t.engines.(i) ~inclusive b;
           t.busy_s.(i) <- t.busy_s.(i) +. (Unix.gettimeofday () -. s))
         (List.init k Fun.id));
    let wall = Unix.gettimeofday () -. t0 in
    let busy = Array.fold_left ( +. ) 0.0 t.busy_s -. busy0 in
    t.stall_s <- t.stall_s +. Float.max 0.0 ((wall *. float_of_int k) -. busy)
  | _ ->
    for i = 0 to k - 1 do
      let s = Unix.gettimeofday () in
      run_engine t.engines.(i) ~inclusive b;
      t.busy_s.(i) <- t.busy_s.(i) +. (Unix.gettimeofday () -. s)
    done

(* Execute everything with time <= b.  Passes run on time < b, flushing,
   until no engine holds an event before [b]; only then does one pass run
   the instant [b] itself.  A message that lands exactly on the barrier
   (latency equal to the window, emitted at the window's opening instant)
   is thus queued before its destination runs [b], and runs among [b]'s
   other events in key order, as on one shard.  Sends from the instant [b]
   cross the partition no earlier than [b + window_ms], so no flush can
   land at or before [b] after that pass.  With nothing left at [b] the
   engines' clocks still advance to it, without a pool fan-out. *)
let settle t b =
  let rec before () =
    pass t ~inclusive:false b;
    flush t;
    if min_next t && t.next.(0) < b then before ()
  in
  before ();
  if min_next t && t.next.(0) <= b then begin
    pass t ~inclusive:true b;
    flush t
  end
  else
    for i = 0 to Array.length t.engines - 1 do
      Engine.run_until t.engines.(i) b
    done

let pending t =
  Array.fold_left (fun acc e -> acc + Engine.pending e) 0 t.engines

let sync_observe t time =
  let p = pending t in
  if p > t.peak then t.peak <- p;
  match t.monitor with None -> () | Some m -> m time

let run_until t horizon =
  let t0 = Unix.gettimeofday () in
  (* Sends from global context (outside any window) land in outboxes too;
     fold them in before the first window is sized, or the conservative
     bound would be computed blind to them. *)
  flush t;
  let rec loop () =
    if t.clock < horizon || min_next t || not (Heap.is_empty t.globals)
    then begin
      let has_global = not (Heap.is_empty t.globals) in
      if has_global then Heap.min_prio_into t.globals t.next 1;
      let b = if has_global then Float.min horizon t.next.(1) else horizon in
      let b =
        if min_next t && t.next.(0) +. t.window_ms < b then t.next.(0) +. t.window_ms
        else b
      in
      let b = Float.max b t.clock in
      t.windows_run <- t.windows_run + 1;
      settle t b;
      (* Advance the merged clock before globals fire: a global closure at
         time [b] must read [now t = b]. *)
      t.clock <- Float.max t.clock b;
      let is_global = has_global && t.next.(1) = b in
      if is_global then begin
        let rec fire () =
          if not (Heap.is_empty t.globals) then begin
            Heap.min_prio_into t.globals t.next 1;
            if t.next.(1) <= b then begin
              Heap.take t.globals ();
              fire ()
            end
          end
        in
        fire ();
        (* Globals may emit (directly or via pool fan-out into outboxes);
           settle again so the barrier invariant — nothing pending at or
           before the merged clock — holds when the monitor looks. *)
        flush t;
        if min_next t && t.next.(0) <= b then settle t b
      end;
      (* Observables only at K-independent instants: global-event times and
         the caller's horizon.  Window barriers in between depend on the
         shard count and must stay invisible. *)
      if is_global || b >= horizon then sync_observe t b;
      if b < horizon then loop ()
    end
    else begin
      t.clock <- Float.max t.clock horizon;
      sync_observe t t.clock
    end
  in
  loop ();
  t.elapsed_s <- t.elapsed_s +. (Unix.gettimeofday () -. t0)

let peak_global t = t.peak

let executed_total t =
  Array.fold_left (fun acc e -> acc + Engine.executed_total e) 0 t.engines

let fingerprint t =
  Array.fold_left (fun acc e -> acc + Engine.digest e) 0 t.engines

let stats t =
  {
    windows = t.windows_run;
    executed = Array.map Engine.executed_total t.engines;
    busy_s = Array.copy t.busy_s;
    stall_s = t.stall_s;
    elapsed_s = t.elapsed_s;
  }
