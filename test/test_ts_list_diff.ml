(* Differential test for the array-backed TS list: the indexed
   implementation (binary-search insert, cached minimum deadline) against
   a reference re-implementation of the original sorted-linked-list
   semantics, driven by randomized workloads that mix exact-slot merges,
   partial overlaps (both directions), containment, boundary extension,
   and interleaved evictions. After every operation the two structures
   must agree on entries, next deadline, and anything popped. *)

module Ts_list = Mortar_core.Ts_list
module Summary = Mortar_core.Summary
module Index = Mortar_core.Index
module Op = Mortar_core.Op
module Value = Mortar_core.Value
module Rng = Mortar_util.Rng

let sum = Op.compile Op.Sum

(* ------------------------------------------------------------------ *)
(* Reference: the pre-indexing implementation, verbatim semantics.      *)

module Reference = struct
  type entry = {
    mutable index : Index.t;
    mutable value : Value.t;
    mutable count : int;
    mutable boundary : bool;
    mutable prov : (int * int) list;
    mutable age_acc : float;
    mutable hops_acc : float;
    mutable hops_max : int;
    mutable deadline : float;
    mutable cap : float;
  }

  type t = {
    op : Op.impl;
    extend_boundaries : bool;
    quiet_guard : float;
    hard_cap : float;
    mutable entries : entry list;
  }

  let create ?(extend_boundaries = false) ?(quiet_guard = 0.6) ?(hard_cap = 6.0) ~op () =
    { op; extend_boundaries; quiet_guard; hard_cap; entries = [] }

  let entry_of_summary t ~now ~deadline (s : Summary.t) =
    {
      index = s.index;
      value = s.value;
      count = s.count;
      boundary = s.boundary;
      prov = s.prov;
      age_acc = float_of_int (max 1 s.count) *. (s.age -. now);
      hops_acc = float_of_int (max 1 s.count) *. float_of_int s.hops;
      hops_max = s.hops_max;
      deadline;
      cap = now +. t.hard_cap;
    }

  let merge_into t e ~now (s : Summary.t) =
    e.value <- t.op.Op.merge e.value s.value;
    e.count <- e.count + s.count;
    e.boundary <- e.boundary && s.boundary;
    e.prov <- Summary.merge_prov e.prov s.prov;
    e.age_acc <- e.age_acc +. (float_of_int (max 1 s.count) *. (s.age -. now));
    e.hops_acc <- e.hops_acc +. (float_of_int (max 1 s.count) *. float_of_int s.hops);
    e.hops_max <- max e.hops_max s.hops_max;
    e.deadline <- min e.cap (max e.deadline (now +. t.quiet_guard))

  let shrink e idx = { e with index = idx }

  let restrict_summary (s : Summary.t) idx = { s with Summary.index = idx }

  let rec insert_rec t ~now ~deadline (s : Summary.t) =
    let idx = s.Summary.index in
    let rec place before after =
      match after with
      | [] -> List.rev_append before [ entry_of_summary t ~now ~deadline s ]
      | e :: rest when not (Index.overlaps e.index idx) ->
        if Index.compare_by_start idx e.index < 0 then
          List.rev_append before (entry_of_summary t ~now ~deadline s :: e :: rest)
        else place (e :: before) rest
      | e :: rest ->
        if Index.equal e.index idx then begin
          merge_into t e ~now s;
          List.rev_append before (e :: rest)
        end
        else begin
          let inter =
            match Index.intersect e.index idx with
            | Some i -> i
            | None -> assert false
          in
          let pieces = ref [] in
          if e.index.Index.tb < inter.Index.tb -. 1e-9 then
            pieces := shrink e (Index.make ~tb:e.index.Index.tb ~te:inter.Index.tb) :: !pieces
          else if idx.Index.tb < inter.Index.tb -. 1e-9 then
            pieces :=
              entry_of_summary t ~now ~deadline
                (restrict_summary s (Index.make ~tb:idx.Index.tb ~te:inter.Index.tb))
              :: !pieces;
          let overlap_entry = shrink e inter in
          merge_into t overlap_entry ~now (restrict_summary s inter);
          pieces := overlap_entry :: !pieces;
          let assembled = List.rev_append before (List.rev_append !pieces []) in
          let trailing_entry =
            if e.index.Index.te > inter.Index.te +. 1e-9 then
              Some (`Entry (shrink e (Index.make ~tb:inter.Index.te ~te:e.index.Index.te)))
            else if idx.Index.te > inter.Index.te +. 1e-9 then
              Some
                (`Summary (restrict_summary s (Index.make ~tb:inter.Index.te ~te:idx.Index.te)))
            else None
          in
          let base = assembled @ rest in
          match trailing_entry with
          | None -> base
          | Some (`Entry residue) ->
            let rec splice = function
              | [] -> [ residue ]
              | x :: xs ->
                if Index.compare_by_start residue.index x.index < 0 then residue :: x :: xs
                else x :: splice xs
            in
            splice base
          | Some (`Summary s') ->
            t.entries <- base;
            insert_rec t ~now ~deadline s';
            t.entries
        end
    in
    t.entries <- place [] t.entries

  let try_extend t (s : Summary.t) =
    let idx = s.Summary.index in
    let rec scan = function
      | [] -> false
      | e :: rest when abs_float (e.index.Index.te -. idx.Index.tb) < 1e-9 ->
        let cap =
          match rest with
          | next :: _ -> min idx.Index.te next.index.Index.tb
          | [] -> idx.Index.te
        in
        if cap > e.index.Index.te +. 1e-9 then begin
          e.index <- Index.make ~tb:e.index.Index.tb ~te:cap;
          true
        end
        else true
      | _ :: rest -> scan rest
    in
    scan t.entries

  let insert t ~now ~deadline s =
    if s.Summary.boundary && t.extend_boundaries && try_extend t s then ()
    else insert_rec t ~now ~deadline s

  let next_deadline t = List.fold_left (fun acc e -> min acc e.deadline) infinity t.entries

  let to_summary ~now e =
    let weight = float_of_int (max 1 e.count) in
    let age = (e.age_acc +. (weight *. now)) /. weight in
    let hops = int_of_float (Float.round (e.hops_acc /. weight)) in
    Summary.make ~index:e.index ~value:e.value ~count:e.count ~boundary:e.boundary ~age
      ~hops ~hops_max:e.hops_max ~prov:e.prov ()

  let pop_due t ~now =
    let due, keep = List.partition (fun e -> e.deadline <= now +. 1e-6) t.entries in
    t.entries <- keep;
    List.map (to_summary ~now) due

  let force_pop t ~now =
    let all = t.entries in
    t.entries <- [];
    List.map (to_summary ~now) all

  let entries t = List.map (fun e -> (e.index, e.value, e.count, e.deadline)) t.entries
end

(* ------------------------------------------------------------------ *)
(* Comparators.                                                         *)

let summary_eq (a : Summary.t) (b : Summary.t) =
  Index.equal a.index b.index
  && Value.to_float a.value = Value.to_float b.value
  && a.count = b.count && a.boundary = b.boundary
  && Float.equal a.age b.age
  && a.hops = b.hops && a.hops_max = b.hops_max
  && a.prov = b.prov

let summaries_eq la lb = List.length la = List.length lb && List.for_all2 summary_eq la lb

let check_state ~ctx arr_ts ref_ts =
  let ea = Ts_list.entries arr_ts and er = Reference.entries ref_ts in
  if
    not
      (List.length ea = List.length er
      && List.for_all2
           (fun (ia, va, ca, da) (ir, vr, cr, dr) ->
             Index.equal ia ir
             && Value.to_float va = Value.to_float vr
             && ca = cr && da = dr)
           ea er)
  then
    Alcotest.failf "%s: entries diverge (array %d entries, reference %d)" ctx
      (List.length ea) (List.length er);
  let da = Ts_list.next_deadline arr_ts and dr = Reference.next_deadline ref_ts in
  if not (Float.equal da dr) then
    Alcotest.failf "%s: next_deadline diverges (%g vs %g)" ctx da dr

(* ------------------------------------------------------------------ *)
(* Randomized workload.                                                 *)

(* Intervals on a 0.25 grid over [0, 8): coarse enough that exact slots,
   containment, straddles, and shared endpoints all occur constantly. *)
let random_index rng =
  let grid = 0.25 in
  let tb = float_of_int (Rng.int rng 32) *. grid in
  let len = float_of_int (1 + Rng.int rng 8) *. grid in
  Index.make ~tb ~te:(tb +. len)

let random_summary rng ~boundary_frac =
  let index = random_index rng in
  let boundary = Rng.float rng 1.0 < boundary_frac in
  let value = Value.Float (float_of_int (1 + Rng.int rng 9)) in
  let count = 1 + Rng.int rng 4 in
  let age = Rng.float rng 0.5 in
  let hops = Rng.int rng 6 in
  Summary.make ~index ~value ~count ~boundary ~age ~hops ~hops_max:hops ()

let run_workload ~seed ~inserts ~extend_boundaries ~boundary_frac () =
  let arr_ts = Ts_list.create ~extend_boundaries ~op:sum () in
  let ref_ts = Reference.create ~extend_boundaries ~op:sum () in
  let rng = Rng.create seed in
  let now = ref 0.0 in
  for i = 1 to inserts do
    now := !now +. Rng.float rng 0.02;
    let s = random_summary rng ~boundary_frac in
    let deadline = !now +. 0.2 +. Rng.float rng 2.0 in
    Ts_list.insert arr_ts ~now:!now ~deadline s;
    Reference.insert ref_ts ~now:!now ~deadline s;
    check_state ~ctx:(Printf.sprintf "seed %d insert %d" seed i) arr_ts ref_ts;
    if Rng.float rng 1.0 < 0.03 then begin
      let due_a = Ts_list.pop_due arr_ts ~now:!now in
      let due_r = Reference.pop_due ref_ts ~now:!now in
      if not (summaries_eq due_a due_r) then
        Alcotest.failf "seed %d pop_due %d: popped summaries diverge" seed i;
      check_state ~ctx:(Printf.sprintf "seed %d after pop_due %d" seed i) arr_ts ref_ts
    end
  done;
  let fa = Ts_list.force_pop arr_ts ~now:(!now +. 10.0) in
  let fr = Reference.force_pop ref_ts ~now:(!now +. 10.0) in
  if not (summaries_eq fa fr) then Alcotest.failf "seed %d: force_pop diverges" seed;
  Alcotest.(check int) "drained" 0 (Ts_list.length arr_ts)

let test_differential_plain () =
  List.iter
    (fun seed -> run_workload ~seed ~inserts:1200 ~extend_boundaries:false ~boundary_frac:0.0 ())
    [ 1; 2; 3 ]

let test_differential_boundaries () =
  (* Boundary tuples + extension on: exercises try_extend against the
     reference scan, including the absorbed-without-extending case. *)
  List.iter
    (fun seed -> run_workload ~seed ~inserts:1200 ~extend_boundaries:true ~boundary_frac:0.25 ())
    [ 11; 12; 13 ]

let test_differential_exact_slots () =
  (* The fig09 shape: every insert lands on one of a few exact slots, so
     the fast path (in-place merge, no structural change) is the only
     path — and deadline extension churns the cached minimum. *)
  let arr_ts = Ts_list.create ~op:sum () in
  let ref_ts = Reference.create ~op:sum () in
  let rng = Rng.create 21 in
  let now = ref 0.0 in
  for i = 1 to 1500 do
    now := !now +. Rng.float rng 0.01;
    let slot = Rng.int rng 6 in
    let index = Index.of_slot ~slide:1.0 slot in
    let s = Summary.make ~index ~value:(Value.Float 1.0) ~count:1 () in
    let deadline = !now +. 0.5 +. Rng.float rng 1.0 in
    Ts_list.insert arr_ts ~now:!now ~deadline s;
    Reference.insert ref_ts ~now:!now ~deadline s;
    check_state ~ctx:(Printf.sprintf "exact-slot insert %d" i) arr_ts ref_ts;
    if i mod 200 = 0 then begin
      let due_a = Ts_list.pop_due arr_ts ~now:(!now +. 2.0) in
      let due_r = Reference.pop_due ref_ts ~now:(!now +. 2.0) in
      if not (summaries_eq due_a due_r) then
        Alcotest.failf "exact-slot pop_due %d diverges" i;
      now := !now +. 2.0
    end
  done

let tests =
  [
    Alcotest.test_case "differential: random overlaps" `Quick test_differential_plain;
    Alcotest.test_case "differential: boundary extension" `Quick test_differential_boundaries;
    Alcotest.test_case "differential: exact-slot fast path" `Quick
      test_differential_exact_slots;
  ]
