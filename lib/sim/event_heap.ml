(* Monomorphic 4-ary min-heap of event keys for the engine.

   A key is [(time, seq, slot)]: [time] and [seq] order the heap, [slot]
   names the engine slab entry holding the event's action. The three
   live in parallel arrays — [times] is a flat [float array], [seqs] and
   [slots] are immediate [int array]s — so the sift loops compare and
   move unboxed words only: no event record, no pointer chase, no write
   barrier per level. A 4-ary layout halves the levels of a binary heap
   (children of [i] are [4i+1..4i+4], contiguous in one cache line).

   Pop order is unaffected by the heap shape: (time, seq) is a strict
   total order ([seq] is unique), so every correct min-queue pops the
   same sequence. The arrays start empty and double from two slots, so
   an idle engine stays small. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; slots = [||]; size = 0 }

let length t = t.size

let grow t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 2 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0

(* Sift up by hole-filling from position [size], whose time [push] has
   already written: parents shift down into the hole, the new key is
   written once at its final position. Reading the time back out of the
   float array keeps it unboxed across this (non-inlined) call. *)
let[@lint.hot] sift_up t ~seq ~slot =
  let tm = t.times and sq = t.seqs and sl = t.slots in
  let i = ref t.size in
  let xt = tm.(!i) in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if xt < tm.(parent) || (xt = tm.(parent) && seq < sq.(parent)) then begin
      tm.(!i) <- tm.(parent);
      sq.(!i) <- sq.(parent);
      sl.(!i) <- sl.(parent);
      i := parent
    end
    else continue := false
  done;
  tm.(!i) <- xt;
  sq.(!i) <- seq;
  sl.(!i) <- slot

let[@inline][@lint.hot] push t time ~seq ~slot =
  if t.size = Array.length t.slots then grow t;
  t.times.(t.size) <- time;
  sift_up t ~seq ~slot

(* The earliest key's time, or [infinity] on an empty heap: the engine's
   allocation-free boundary probe. *)
let[@inline] top_time t = if t.size = 0 then infinity else t.times.(0)

(* Remove the earliest key and return its slot. The heap must be
   non-empty (callers probe [top_time] or [length] first). *)
let[@lint.hot] pop t =
  let tm = t.times and sq = t.seqs and sl = t.slots in
  let top = sl.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then begin
    let xt = tm.(n) and xs = sq.(n) and xl = sl.(n) in
    (* Sift down by hole-filling with the displaced last key. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (4 * !i) + 1 in
      if base >= n then continue := false
      else begin
        let best = ref base in
        let stop = min (base + 4) n in
        for c = base + 1 to stop - 1 do
          if tm.(c) < tm.(!best) || (tm.(c) = tm.(!best) && sq.(c) < sq.(!best)) then best := c
        done;
        if tm.(!best) < xt || (tm.(!best) = xt && sq.(!best) < xs) then begin
          tm.(!i) <- tm.(!best);
          sq.(!i) <- sq.(!best);
          sl.(!i) <- sl.(!best);
          i := !best
        end
        else continue := false
      end
    done;
    tm.(!i) <- xt;
    sq.(!i) <- xs;
    sl.(!i) <- xl
  end;
  top
