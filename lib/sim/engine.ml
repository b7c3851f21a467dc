module Obs = Mortar_obs.Obs

(* Event storage. The heap ({!Event_heap}) holds only keys
   [(time, seq, slot)]; each queued event sits once in a slab indexed by
   slot: its handler in [calls], the handler's int argument in [args]
   and its sequence number in [seqs]. A caller passes one preallocated
   handler and names its own state with the argument, so a post
   allocates nothing. Free slots are chained through [args].

   A handle packs [seq lsl slot_bits lor slot]. Sequence numbers are
   never reused, so a handle whose event fired (or was cancelled and
   popped) no longer matches its slot, even after the slot is reused:
   the generation is the sequence number itself. It keeps 38 bits, so a
   stale handle could only match again after 2.7e11 more events on one
   engine.

   Cancelling drops the handler at once (the slot's call becomes
   [no_call]) but leaves the key queued until it reaches the top, so
   [next_time], and with it every epoch bound, does not depend on which
   events were cancelled. [cancelled] counts such corpses so [pending]
   stays O(1). *)

type handle = int

let slot_bits = 24

let slot_mask = (1 lsl slot_bits) - 1

let seq_mask = max_int lsr slot_bits

let no_handle = -1

let no_call (_ : int) = ()

(* A float-only record is stored flat, so advancing the clock writes an
   unboxed word instead of allocating a box. *)
type clock = { mutable now : float }

type t = {
  queue : Event_heap.t;
  clock : clock;
  mutable calls : (int -> unit) array; (* [no_call] while free or cancelled *)
  mutable args : int array; (* the handler's argument; the next free slot while free *)
  mutable seqs : int array; (* the queued event's sequence number *)
  mutable free : int; (* head of the free-slot chain; -1 when empty *)
  mutable next_seq : int;
  mutable cancelled : int; (* cancelled events whose keys are still queued *)
  mutable fired : int;
}

let create () =
  {
    queue = Event_heap.create ();
    clock = { now = 0.0 };
    calls = [||];
    args = [||];
    seqs = [||];
    free = -1;
    next_seq = 0;
    cancelled = 0;
    fired = 0;
  }

let[@inline] now t = t.clock.now

(* Double the slab (from two slots) and chain the new slots onto the
   free list. *)
let grow t =
  let cap = Array.length t.args in
  let ncap = if cap = 0 then 2 else cap * 2 in
  if ncap > slot_mask + 1 then failwith "Engine: more queued events than handle slots";
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.calls <- extend t.calls no_call;
  t.args <- extend t.args (-1);
  t.seqs <- extend t.seqs 0;
  for s = ncap - 1 downto cap do
    t.args.(s) <- t.free;
    t.free <- s
  done

(* Claim a slot, store the event in it, and queue its key under the
   next sequence number. Times in the past are clamped to now. Inlined
   so [at] reaches the heap's float array without being boxed. *)
let[@inline][@lint.hot] post t ~at f arg =
  if t.free < 0 then grow t;
  let slot = t.free in
  t.free <- t.args.(slot);
  t.calls.(slot) <- f;
  t.args.(slot) <- arg;
  let at = if at < t.clock.now then t.clock.now else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.seqs.(slot) <- seq;
  Event_heap.push t.queue at ~seq ~slot;
  ((seq land seq_mask) lsl slot_bits) lor slot

let cancel t h =
  let slot = h land slot_mask in
  if
    h >= 0
    && slot < Array.length t.calls
    && t.calls.(slot) != no_call
    && t.seqs.(slot) land seq_mask = h lsr slot_bits
  then begin
    t.calls.(slot) <- no_call;
    t.cancelled <- t.cancelled + 1
  end

(* Pop the earliest event, free its slot, and run it unless it was
   cancelled; [true] when it fired. The slot is freed before the handler
   runs, so whatever the handler posts may reuse it. *)
let[@lint.hot] fire t =
  let time = Event_heap.top_time t.queue in
  let slot = Event_heap.pop t.queue in
  let call = t.calls.(slot) and arg = t.args.(slot) in
  t.calls.(slot) <- no_call;
  t.args.(slot) <- t.free;
  t.free <- slot;
  if call == no_call then begin
    t.cancelled <- t.cancelled - 1;
    false
  end
  else begin
    t.clock.now <- time;
    t.fired <- t.fired + 1;
    if !Obs.enabled then Obs.incr "engine.events_fired";
    call arg;
    true
  end

let[@lint.hot] rec step t = Event_heap.length t.queue > 0 && (fire t || step t)

let[@lint.hot] run ?until t =
  match until with
  | None -> while step t do () done
  | Some stop ->
    (* Probe the top with [top_time] ([infinity] when empty) and pop only
       what fires, so a boundary hit costs no sift. *)
    while Event_heap.top_time t.queue <= stop do
      ignore (fire t)
    done;
    if t.clock.now < stop then t.clock.now <- stop

let[@lint.hot] run_before t bound =
  (* Strict-bound twin of [run ~until]: events with [time < bound] fire,
     an event at exactly [bound] stays queued. The conservative epoch
     scheduler runs every shard to a horizon H with this, then merges
     cross-shard messages — all stamped [>= H] by the lookahead bound —
     so an inclusive stop would steal events that canonically belong to
     the next epoch. *)
  while Event_heap.top_time t.queue < bound do
    ignore (fire t)
  done;
  if t.clock.now < bound then t.clock.now <- bound

(* Includes cancelled-but-queued keys: an under-estimate of the next
   event that fires, which is the safe side for epoch bounds. *)
let[@inline] next_time t = Event_heap.top_time t.queue

let pending t = Event_heap.length t.queue - t.cancelled

let fired t = t.fired
