(* Cross-shard message batches for the conservative parallel engine.

   A simulation is partitioned into logical shards (one per stub domain,
   fixed by the topology — NOT by the domain count, which only decides
   how many shards execute concurrently). Within an epoch each shard
   runs its own engine; a send whose destination lives on another shard
   is posted here instead of scheduled, stamped with its delivery time.
   Before the destination next runs, it merges everything posted to it
   in the canonical total order

       (time, src_shard, seq)

   where [seq] is the message's position in its (source, destination)
   batch, i.e. the source's posting order. The order depends only on the
   logical shard structure, so any domain count, including one, yields
   byte-identical simulations.

   Storage is struct-of-arrays: one batch per (parity, source,
   destination), each a set of parallel columns plus its minimum time,
   reused from epoch to epoch. Posts go to the batch set of the current
   [parity]; [flip] (at the epoch barrier) makes that set the pending one
   and opens the other for the next epoch. During an epoch source [s]
   writes only batches [(parity, s, _)] and destination [d] reads and
   clears only [(1 - parity, _, d)], so the two never touch the same
   batch and destinations can merge inside their own parallel slice. *)

type 'm batch = {
  mutable len : int;
  mutable times : float array;
  mutable srcs : int array;
  mutable dsts : int array;
  mutable kinds : string array;
  mutable payloads : 'm array;
}

(* A destination's merge scratch: the pending messages' times and
   [(src_shard, pos)] keys, sorted in place, and the merge sort's buffers. *)
type scratch = {
  mutable ktimes : float array;
  mutable keys : int array;
  mutable tmp_times : float array;
  mutable tmp_keys : int array;
}

type 'm t = {
  shards : int;
  batches : 'm batch array; (* (parity * shards + src) * shards + dst *)
  mins : float array; (* per batch: earliest time, [infinity] when empty *)
  scratch : scratch array; (* per destination *)
  mutable parity : int; (* the batch set posts go to *)
  mutable blank : 'm option; (* the first payload ever posted *)
}

let create ~shards =
  let nb = 2 * shards * shards in
  {
    shards;
    batches =
      Array.init nb (fun _ ->
          { len = 0; times = [||]; srcs = [||]; dsts = [||]; kinds = [||]; payloads = [||] });
    mins = Array.make nb infinity;
    scratch =
      Array.init shards (fun _ ->
          { ktimes = [||]; keys = [||]; tmp_times = [||]; tmp_keys = [||] });
    parity = 0;
    blank = None;
  }

let[@inline] index t ~parity ~src_shard ~dst_shard =
  (((parity * t.shards) + src_shard) * t.shards) + dst_shard

(* Append everything but the time, growing the columns by doubling (the
   payload and kind columns are filled with the value being stored), and
   return the message's position. *)
let append b ~src ~dst ~kind payload =
  let pos = b.len in
  let cap = Array.length b.srcs in
  if pos = cap then begin
    let ncap = if cap = 0 then 2 else cap * 2 in
    let extend a fill =
      let c = Array.make ncap fill in
      Array.blit a 0 c 0 pos;
      c
    in
    b.times <- extend b.times 0.0;
    b.srcs <- extend b.srcs 0;
    b.dsts <- extend b.dsts 0;
    b.kinds <- extend b.kinds kind;
    b.payloads <- extend b.payloads payload
  end;
  b.srcs.(pos) <- src;
  b.dsts.(pos) <- dst;
  b.kinds.(pos) <- kind;
  b.payloads.(pos) <- payload;
  b.len <- pos + 1;
  pos

(* Inlined so [time] is stored without being boxed. *)
let[@inline][@lint.hot] post t ~src_shard ~dst_shard ~time ~src ~dst ~kind payload =
  let i = index t ~parity:t.parity ~src_shard ~dst_shard in
  let b = t.batches.(i) in
  (match t.blank with None -> t.blank <- Some payload | Some _ -> ());
  let pos = append b ~src ~dst ~kind payload in
  b.times.(pos) <- time;
  if time < t.mins.(i) then t.mins.(i) <- time

let flip t = t.parity <- 1 - t.parity

(* Earliest time in the pending batch set, or [infinity]. *)
let pending_min t =
  let lo = (1 - t.parity) * t.shards * t.shards in
  let m = ref infinity in
  for i = lo to lo + (t.shards * t.shards) - 1 do
    if t.mins.(i) < !m then m := t.mins.(i)
  done;
  !m

(* Canonical order on scratch entries: time, then the [(src_shard, pos)]
   key, which packs [src_shard lsl 32 lor pos] so one int compare orders
   source then position. *)
let[@inline] before (tm : float array) (ky : int array) i j = tm.(i) < tm.(j) || (tm.(i) = tm.(j) && ky.(i) < ky.(j))

let insertion_sort (tm : float array) (ky : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let xt = tm.(i) and xk = ky.(i) in
    let j = ref (i - 1) in
    while !j >= lo && (xt < tm.(!j) || (xt = tm.(!j) && xk < ky.(!j))) do
      tm.(!j + 1) <- tm.(!j);
      ky.(!j + 1) <- ky.(!j);
      decr j
    done;
    tm.(!j + 1) <- xt;
    ky.(!j + 1) <- xk
  done

(* Top-down merge sort of [tm]/[ky] on [lo, hi), merging through the
   scratch buffers [st]/[sk]. *)
let rec merge_sort (tm : float array) (ky : int array) st sk lo hi =
  if hi - lo <= 16 then insertion_sort tm ky lo hi
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort tm ky st sk lo mid;
    merge_sort tm ky st sk mid hi;
    if before tm ky mid (mid - 1) then begin
      Array.blit tm lo st lo (hi - lo);
      Array.blit ky lo sk lo (hi - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && not (before st sk !j !i)) then begin
          tm.(k) <- st.(!i);
          ky.(k) <- sk.(!i);
          incr i
        end
        else begin
          tm.(k) <- st.(!j);
          ky.(k) <- sk.(!j);
          incr j
        end
      done
    end
  end

let ensure sc n =
  if Array.length sc.keys < n then begin
    let cap = max n (2 * Array.length sc.keys) in
    sc.ktimes <- Array.make cap 0.0;
    sc.keys <- Array.make cap 0;
    sc.tmp_times <- Array.make cap 0.0;
    sc.tmp_keys <- Array.make cap 0
  end

(* Hand every pending message bound for [dst_shard] to [f] in canonical
   order, then clear those batches. [f b pos] reads the message with the
   accessors below. Touches only the pending set's column of [dst_shard],
   so destinations may drain concurrently while sources post. *)
let[@lint.hot] drain t ~dst_shard f =
  let p = 1 - t.parity in
  let n = ref 0 in
  for s = 0 to t.shards - 1 do
    n := !n + t.batches.(index t ~parity:p ~src_shard:s ~dst_shard).len
  done;
  if !n > 0 then begin
    let sc = t.scratch.(dst_shard) in
    ensure sc !n;
    let tm = sc.ktimes and ky = sc.keys in
    let k = ref 0 in
    for s = 0 to t.shards - 1 do
      let b = t.batches.(index t ~parity:p ~src_shard:s ~dst_shard) in
      for pos = 0 to b.len - 1 do
        tm.(!k) <- b.times.(pos);
        ky.(!k) <- (s lsl 32) lor pos;
        incr k
      done
    done;
    merge_sort tm ky sc.tmp_times sc.tmp_keys 0 !n;
    for k = 0 to !n - 1 do
      let key = ky.(k) in
      f t.batches.(index t ~parity:p ~src_shard:(key lsr 32) ~dst_shard) (key land 0xffff_ffff)
    done;
    (* Overwrite delivered payloads with the first payload ever posted,
       so a drained batch keeps no message of its own reachable: the
       batches outlive their traffic (one per ordered shard pair and
       parity), and each kept one until its next post. *)
    let blank = match t.blank with Some m -> m | None -> assert false in
    for s = 0 to t.shards - 1 do
      let i = index t ~parity:p ~src_shard:s ~dst_shard in
      let b = t.batches.(i) in
      Array.fill b.payloads 0 b.len blank;
      b.len <- 0;
      t.mins.(i) <- infinity
    done
  end

let[@inline] time b pos = b.times.(pos)

let[@inline] src b pos = b.srcs.(pos)

let[@inline] dst b pos = b.dsts.(pos)

let[@inline] kind b pos = b.kinds.(pos)

let[@inline] payload b pos = b.payloads.(pos)
