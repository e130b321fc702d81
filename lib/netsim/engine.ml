module Heap = Rofl_util.Heap

(* Each queued entry is a payload of type ['e] plus one int, both handed to
   [exec] when the entry pops: the closure engine's payload is the event
   itself, a typed engine's is data its [exec] interprets, so scheduling
   builds no closure. *)
type 'e t = {
  mutable clock : float;
  queue : 'e Heap.t;
  exec : int -> 'e -> unit;
  next : float array; (* register: the queue's minimum time, read in place *)
  mutable peak : int;
  mutable scheduled : int;
  mutable executed : int;
  mutable digest : int;
  (* Observer called after each executed event, outside the queue: a
     checkpoint hook that scheduled events instead would shift the FIFO
     tie-breaking sequence numbers and change every same-time ordering. *)
  mutable monitor : (float -> unit) option;
}

let create_typed ~exec =
  {
    clock = 0.0;
    queue = Heap.create ();
    exec;
    next = [| 0.0 |];
    peak = 0;
    scheduled = 0;
    executed = 0;
    digest = 0;
    monitor = None;
  }

let create () = create_typed ~exec:(fun _ f -> f ())

let now t = t.clock

let set_monitor t f = t.monitor <- Some f

let clear_monitor t = t.monitor <- None

let observe t =
  match t.monitor with None -> () | Some m -> m t.clock

let bump t =
  t.scheduled <- t.scheduled + 1;
  let depth = Heap.length t.queue in
  if depth > t.peak then t.peak <- depth

let schedule_at t ~time_ms f =
  if time_ms < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue time_ms f;
  bump t

let schedule t ~delay_ms f =
  if delay_ms < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time_ms:(t.clock +. delay_ms) f

let[@inline] schedule_keyed t ~time_ms ~rail ~seq ~arg e =
  if time_ms < t.clock then invalid_arg "Engine.schedule_keyed: time in the past";
  Heap.push_keyed t.queue time_ms ~rail ~seq ~arg e;
  bump t

(* Order-insensitive fingerprint of one executed event.  Summed into
   [digest], so two runs executed the same multiset of (time, rail, seq)
   keys iff the digests agree — regardless of how the events were
   distributed across engines.  Native-int wraparound is deterministic. *)
let[@inline] event_hash time rail seq =
  let h = Int64.to_int (Int64.bits_of_float time) in
  let h = (h * 1000003) + rail in
  let h = (h * 1000003) + seq in
  let h = h lxor (h lsr 29) in
  h * 0x9E3779B97F4A7C1

(* Execute the earliest queued event.  Its key and int are read in place
   and its payload taken without building a tuple; the clock is re-boxed
   only when time moves. *)
let exec_next t =
  Heap.min_prio_into t.queue t.next 0;
  let time = t.next.(0) and rail = Heap.min_rail t.queue and seq = Heap.min_seq t.queue in
  let arg = Heap.min_arg t.queue in
  let e = Heap.take t.queue in
  if time <> t.clock then t.clock <- time;
  t.executed <- t.executed + 1;
  t.digest <- t.digest + event_hash time rail seq;
  t.exec arg e;
  observe t

let run t =
  while not (Heap.is_empty t.queue) do
    exec_next t
  done

let run_until t horizon =
  while
    (not (Heap.is_empty t.queue)) && (Heap.min_prio_into t.queue t.next 0; t.next.(0) <= horizon)
  do
    exec_next t
  done;
  (* Advance the clock to the horizon and give the monitor one look at the
     idle boundary: a quiescent queue (e.g. a stopped stabilizer) must not
     blind a checkpoint auditor to time passing. *)
  if horizon > t.clock then t.clock <- horizon;
  observe t

let run_before t horizon =
  while
    (not (Heap.is_empty t.queue)) && (Heap.min_prio_into t.queue t.next 0; t.next.(0) < horizon)
  do
    exec_next t
  done

let pending t = Heap.length t.queue

let next_time_into t reg =
  (not (Heap.is_empty t.queue))
  && begin
    Heap.min_prio_into t.queue t.next 0;
    if t.next.(0) < reg.(0) then reg.(0) <- t.next.(0);
    true
  end

let peak_pending t = t.peak

let scheduled_total t = t.scheduled

let executed_total t = t.executed

let digest t = t.digest

let clear t = Heap.clear t.queue

let reset t =
  Heap.clear t.queue;
  t.clock <- 0.0;
  t.peak <- 0;
  t.scheduled <- 0;
  t.executed <- 0;
  t.digest <- 0;
  t.monitor <- None
