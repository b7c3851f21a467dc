module Obs = Mortar_obs.Obs

type handle = {
  mutable cancelled : bool;
  mutable queued : bool; (* still sitting in some engine's queue *)
  counter : int ref; (* that engine's cancelled-but-queued count *)
}

type t = {
  queue : handle Event_heap.t;
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int;
  cancelled_live : int ref;
  mutable fired : int;
}

let create () =
  {
    queue = Event_heap.create ();
    clock = 0.0;
    next_seq = 0;
    live = 0;
    cancelled_live = ref 0;
    fired = 0;
  }

let now t = t.clock

let schedule_at t ~at f =
  let at = if at < t.clock then t.clock else at in
  let h = { cancelled = false; queued = true; counter = t.cancelled_live } in
  let ev = { Event_heap.time = at; seq = t.next_seq; action = f; h } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Event_heap.push t.queue ev;
  h

let schedule t ~after f =
  let after = if after < 0.0 then 0.0 else after in
  schedule_at t ~at:(t.clock +. after) f

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    if h.queued then incr h.counter
  end

let cancelled h = h.cancelled

(* Retire a popped event and fire it unless it was cancelled; [true]
   when it fired. *)
let[@inline] fire t (ev : handle Event_heap.event) =
  t.live <- t.live - 1;
  ev.h.queued <- false;
  if ev.h.cancelled then begin
    decr t.cancelled_live;
    false
  end
  else begin
    t.clock <- ev.time;
    t.fired <- t.fired + 1;
    if !Obs.enabled then Obs.incr "engine.events_fired";
    ev.action ();
    true
  end

let[@lint.hot] rec step t =
  match Event_heap.pop t.queue with
  | None -> false
  | Some ev -> fire t ev || step t

let[@lint.hot] run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    (* Boundary check via [top_time] (O(1), allocation-free), pop only
       what actually fires: the old pop-then-push-back paid a double
       O(log n) sift at every boundary hit, which the epoch scheduler
       reaches thousands of times per run. [top_time] is [infinity] on
       an empty heap, so exhaustion falls out of the same test. *)
    while Event_heap.top_time t.queue <= stop do
      match Event_heap.pop t.queue with
      | None -> assert false (* top_time <= stop implies non-empty *)
      | Some ev -> ignore (fire t ev)
    done;
    if t.clock < stop then t.clock <- stop

let[@lint.hot] run_before t bound =
  (* Strict-bound twin of [run ~until]: events with [time < bound] fire,
     an event at exactly [bound] stays queued. The conservative epoch
     scheduler runs every shard to a horizon H with this, then merges
     cross-shard messages — all stamped [>= H] by the lookahead bound —
     so an inclusive stop would steal events that canonically belong to
     the next epoch. *)
  while Event_heap.top_time t.queue < bound do
    match Event_heap.pop t.queue with
    | None -> assert false (* top_time < bound implies non-empty *)
    | Some ev -> ignore (fire t ev)
  done;
  if t.clock < bound then t.clock <- bound

let next_time t =
  (* Time of the earliest queued event, cancelled or not. Cancelled
     events only make this an under-estimate of the next *fired* time,
     which is safe for epoch bounds (a shard wakes up, pops the corpse,
     and sleeps again). *)
  match Event_heap.peek t.queue with
  | None -> None
  | Some ev -> Some ev.time

let pending t =
  (* [live] counts queued events including cancelled ones that have not
     been popped yet; [cancelled_live] tracks exactly those, so the
     difference is O(1) where a heap scan used to be O(n). *)
  t.live - !(t.cancelled_live)

let fired t = t.fired
