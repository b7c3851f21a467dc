(* An entry's float state: a record of floats only is stored flat, so
   the writes on every merge allocate no box. *)
type acc = {
  mutable age_acc : float; (* sum over constituents of count * (age - arrival) *)
  mutable hops_acc : float; (* sum over constituents of count * hops *)
  mutable deadline : float;
  cap : float; (* absolute ceiling on deadline extensions *)
}

type entry = {
  mutable index : Index.t;
  mutable value : Value.t;
  mutable count : int;
  mutable boundary : bool;
  mutable prov : (int * int) list;
  mutable hops_max : int;
  f : acc; (* never shared between entries *)
}

(* Entries live in a sorted growable array (non-overlapping, ordered by
   interval start — hence also by interval end), so the insert position is
   a binary search and the common case — a summary landing on an existing
   entry's exact slot (the syncless data path) — is an O(log n) in-place
   merge instead of the former O(n) list walk and rebuild.

   [min_deadline] is maintained as the exact minimum over entries
   (infinity when empty): new deadlines bump it down in O(1); the rare
   events that can move the minimum up — a quiescence extension of the
   minimum entry, a split, an eviction — trigger an O(n) rescan. The
   peer's eviction re-arm calls [next_deadline] after every insert, so it
   must not fold the whole structure. *)
type limits = {
  quiet_guard : float;
  hard_cap : float;
  mutable min_deadline : float;
}

type t = {
  op : Op.impl;
  extend_boundaries : bool;
  lim : limits; (* flat, like [acc] *)
  mutable arr : entry array;
  mutable len : int;
}

let eps = 1e-9

let create ?(extend_boundaries = false) ?(quiet_guard = 0.6) ?(hard_cap = 6.0) ~op () =
  { op; extend_boundaries; lim = { quiet_guard; hard_cap; min_deadline = infinity }; arr = [||];
    len = 0 }

let length t = t.len

let bump_min t d = if d < t.lim.min_deadline then t.lim.min_deadline <- d

let rescan_min t =
  let m = ref infinity in
  for i = 0 to t.len - 1 do
    if t.arr.(i).f.deadline < !m then m := t.arr.(i).f.deadline
  done;
  t.lim.min_deadline <- !m

(* First slot whose entry's interval end lies past [tb] — the only entry
   that can overlap an interval starting at [tb], or the insert position.
   Interval ends are strictly increasing across the sorted disjoint
   entries, so this is a plain lower bound. *)
let find_from t tb =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.arr.(mid).index.Index.te > tb +. eps then hi := mid else lo := mid + 1
  done;
  !lo

let insert_at t i e =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let narr = Array.make ncap e in
    Array.blit t.arr 0 narr 0 t.len;
    t.arr <- narr
  end;
  Array.blit t.arr i t.arr (i + 1) (t.len - i);
  t.arr.(i) <- e;
  t.len <- t.len + 1;
  bump_min t e.f.deadline

let entry_of_summary t ~now ~deadline (s : Summary.t) =
  {
    index = s.index;
    value = s.value;
    count = s.count;
    boundary = s.boundary;
    prov = s.prov;
    hops_max = s.hops_max;
    f =
      {
        age_acc = float_of_int (max 1 s.count) *. (s.age -. now);
        hops_acc = float_of_int (max 1 s.count) *. float_of_int s.hops;
        deadline;
        cap = now +. t.lim.hard_cap;
      };
  }

(* Merge summary [s] into entry [e] in place (indices assumed compatible;
   the caller has already arranged interval bookkeeping). *)
let merge_into t e ~now (s : Summary.t) =
  e.value <- t.op.Op.merge e.value s.value;
  e.count <- e.count + s.count;
  e.boundary <- e.boundary && s.boundary;
  e.prov <- Summary.merge_prov e.prov s.prov;
  let f = e.f in
  f.age_acc <- f.age_acc +. (float_of_int (max 1 s.count) *. (s.age -. now));
  f.hops_acc <- f.hops_acc +. (float_of_int (max 1 s.count) *. float_of_int s.hops);
  e.hops_max <- max e.hops_max s.hops_max;
  (* Quiescence extension: while tuples keep merging, push the deadline out
     by the quiet guard (never beyond the cap). The first-arrival timeout of
     §4.3 alone is unstable under dynamic striping: sibling trees can make
     two nodes each other's parents, and waits estimated from each other's
     waits ratchet without bound. Extending while the window is still
     "hot" — and only then — keeps eviction adaptive per window with a hard
     latency bound. *)
  f.deadline <- min f.cap (max f.deadline (now +. t.lim.quiet_guard))

(* Merge plus the minimum-deadline bookkeeping: the deadline may move in
   either direction (down when the entry's initial deadline exceeded its
   cap), and moving the minimum entry up forces a rescan. *)
let merge_entry t e ~now s =
  let d_old = e.f.deadline in
  merge_into t e ~now s;
  let d = e.f.deadline in
  if d < t.lim.min_deadline then t.lim.min_deadline <- d
  else if d_old <= t.lim.min_deadline && d > d_old then rescan_min t

(* A copy of entry [e] shrunk to interval [idx], used for split residues.
   It keeps the full value/count/age bookkeeping of the original — §4.2:
   non-overlapping regions retain their initial values. *)
let shrink e idx = { e with index = idx; f = { e.f with age_acc = e.f.age_acc } }

let restrict_summary (s : Summary.t) idx = { s with Summary.index = idx }

(* Insert, maintaining sorted non-overlapping entries. Loop structure
   (the old list recursion, iteratively over the array): find the first
   entry overlapping the summary; emit the part of the summary before it
   (if any) as its own entry; handle the overlap per §4.2; continue with
   the remainder after the entry. *)
let rec insert_rec t ~now ~deadline (s : Summary.t) =
  let idx = s.Summary.index in
  let i = find_from t idx.Index.tb in
  if i >= t.len then insert_at t t.len (entry_of_summary t ~now ~deadline s)
  else begin
    let e = t.arr.(i) in
    if not (Index.overlaps e.index idx) then
      (* Entirely before e: insert here. *)
      insert_at t i (entry_of_summary t ~now ~deadline s)
    else if Index.equal e.index idx then
      (* The exact-slot fast path — the common case on the syncless data
         path (bench fig09): merge in place, no structural change. *)
      merge_entry t e ~now s
    else begin
      (* Partial overlap: split into before / overlap / after pieces. *)
      let inter =
        match Index.intersect e.index idx with
        | Some i -> i
        | None -> assert false
      in
      (* Leading residue: belongs to whichever input starts earlier. *)
      let leading =
        if e.index.Index.tb < inter.Index.tb -. eps then
          Some (shrink e (Index.make ~tb:e.index.Index.tb ~te:inter.Index.tb))
        else if idx.Index.tb < inter.Index.tb -. eps then
          Some
            (entry_of_summary t ~now ~deadline
               (restrict_summary s (Index.make ~tb:idx.Index.tb ~te:inter.Index.tb)))
        else None
      in
      (* Overlap piece: merge of both, inheriting the entry's deadline
         (the first tuple for the region set it). *)
      let overlap_entry = shrink e inter in
      merge_into t overlap_entry ~now (restrict_summary s inter);
      (* Trailing residues may still overlap later entries; an entry
         residue cannot (entries were disjoint), a summary residue is
         re-inserted below. *)
      let trailing =
        if e.index.Index.te > inter.Index.te +. eps then
          Some (`Entry (shrink e (Index.make ~tb:inter.Index.te ~te:e.index.Index.te)))
        else if idx.Index.te > inter.Index.te +. eps then
          Some (`Summary (restrict_summary s (Index.make ~tb:inter.Index.te ~te:idx.Index.te)))
        else None
      in
      (* Replace slot i with the leading piece (if any) and the overlap;
         the original entry's deadline may leave the structure, so the
         cached minimum must be rebuilt (splits are the rare path). *)
      let after_pieces =
        match leading with
        | None ->
          t.arr.(i) <- overlap_entry;
          i + 1
        | Some lead ->
          t.arr.(i) <- lead;
          insert_at t (i + 1) overlap_entry;
          i + 2
      in
      (match trailing with
      | Some (`Entry residue) -> insert_at t after_pieces residue
      | _ -> ());
      rescan_min t;
      match trailing with
      | Some (`Summary s') -> insert_rec t ~now ~deadline s'
      | _ -> ()
    end
  end

(* Boundary tuples whose interval starts exactly where an entry ends extend
   that entry's validity (§4.3: "boundary tuples tell downstream operators
   to extend the previous summary tuple's index") without contributing
   value or count. The extension is capped at the next entry's start to
   preserve disjointness. Boundaries that don't extend anything fall
   through to normal insertion (they still carry completeness counts). *)
let try_extend t (s : Summary.t) =
  let idx = s.Summary.index in
  (* Interval ends are strictly increasing, so the only candidate whose
     end can touch [idx.tb] is the lower bound on [te > idx.tb - eps]. *)
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.arr.(mid).index.Index.te > idx.Index.tb -. eps then hi := mid else lo := mid + 1
  done;
  let i = !lo in
  if i >= t.len then false
  else begin
    let e = t.arr.(i) in
    if abs_float (e.index.Index.te -. idx.Index.tb) < eps then begin
      let cap =
        if i + 1 < t.len then min idx.Index.te t.arr.(i + 1).index.Index.tb
        else idx.Index.te
      in
      if cap > e.index.Index.te +. eps then
        e.index <- Index.make ~tb:e.index.Index.tb ~te:cap;
      true (* extended, or nothing to extend into: the boundary is absorbed *)
    end
    else false
  end

let insert t ~now ~deadline s =
  if s.Summary.boundary && t.extend_boundaries && try_extend t s then ()
  else insert_rec t ~now ~deadline s

let[@inline] next_deadline t = t.lim.min_deadline

let to_summary ~now e =
  let weight = float_of_int (max 1 e.count) in
  let age = (e.f.age_acc +. (weight *. now)) /. weight in
  (* Count-weighted mean constituent path length (the paper's path-length
     metric); rounding keeps it an integer hop count on the wire. *)
  let hops = int_of_float (Float.round (e.f.hops_acc /. weight)) in
  Summary.make ~index:e.index ~value:e.value ~count:e.count ~boundary:e.boundary ~age
    ~hops ~hops_max:e.hops_max ~prov:e.prov ()

let pop_due t ~now =
  (* The epsilon absorbs float rounding between a stored deadline and the
     wakeup time the timer actually fired at: without it, a deadline a few
     ulps past [now] re-arms a zero-length timer forever. The cached
     minimum gates the scan: nothing due, nothing touched. *)
  if t.len = 0 || t.lim.min_deadline > now +. 1e-6 then []
  else begin
    let due = ref [] in
    let keep = ref 0 in
    for i = 0 to t.len - 1 do
      let e = t.arr.(i) in
      if e.f.deadline <= now +. 1e-6 then due := e :: !due
      else begin
        t.arr.(!keep) <- e;
        incr keep
      end
    done;
    t.len <- !keep;
    rescan_min t;
    List.rev_map (to_summary ~now) !due
  end

let force_pop t ~now =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    out := to_summary ~now t.arr.(i) :: !out
  done;
  t.len <- 0;
  t.arr <- [||];
  t.lim.min_deadline <- infinity;
  !out

let entries t =
  List.init t.len (fun i ->
      let e = t.arr.(i) in
      (e.index, e.value, e.count, e.f.deadline))
