(* Tests for the time-space list: insertion semantics of §4.2, dynamic
   timeouts and quiescence extension of §4.3, and age bookkeeping of §5. *)

module Ts_list = Mortar_core.Ts_list
module Summary = Mortar_core.Summary
module Index = Mortar_core.Index
module Op = Mortar_core.Op
module Value = Mortar_core.Value

let check_float = Alcotest.(check (float 1e-9))

let sum = Op.compile Op.Sum

let make_ts ?extend_boundaries ?quiet_guard ?hard_cap () =
  Ts_list.create ?extend_boundaries ?quiet_guard ?hard_cap ~op:sum ()

let summary ?(count = 1) ?(age = 0.0) ?(hops = 0) ~tb ~te v =
  Summary.make ~index:(Index.make ~tb ~te) ~value:(Value.Float v) ~count ~age ~hops ()

let values ts = List.map (fun (_, v, _, _) -> Value.to_float v) (Ts_list.entries ts)

let intervals ts = List.map (fun (i, _, _, _) -> (i.Index.tb, i.Index.te)) (Ts_list.entries ts)

let test_exact_match_merges () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:5.0 3.0);
  Ts_list.insert ts ~now:0.1 ~deadline:20.0 (summary ~tb:0.0 ~te:5.0 4.0);
  Alcotest.(check int) "one entry" 1 (Ts_list.length ts);
  Alcotest.(check (list (float 1e-9))) "merged value" [ 7.0 ] (values ts)

let test_exact_match_keeps_first_deadline_modulo_guard () =
  (* The first tuple's timeout governs; a merge can only extend by the
     quiet guard, never adopt the later tuple's deadline. *)
  let ts = make_ts ~quiet_guard:0.5 ~hard_cap:100.0 () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:5.0 1.0);
  Ts_list.insert ts ~now:0.1 ~deadline:50.0 (summary ~tb:0.0 ~te:5.0 1.0);
  Alcotest.(check bool) "deadline still ~10" true (Ts_list.next_deadline ts <= 10.0 +. 1e-9)

let test_quiescence_extension () =
  let ts = make_ts ~quiet_guard:2.0 ~hard_cap:100.0 () in
  Ts_list.insert ts ~now:0.0 ~deadline:1.0 (summary ~tb:0.0 ~te:5.0 1.0);
  (* A merge at t=0.5 extends the deadline to 0.5 + 2.0 = 2.5. *)
  Ts_list.insert ts ~now:0.5 ~deadline:99.0 (summary ~tb:0.0 ~te:5.0 1.0);
  check_float "extended" 2.5 (Ts_list.next_deadline ts);
  (* The hard cap bounds extensions. *)
  let capped = make_ts ~quiet_guard:50.0 ~hard_cap:3.0 () in
  Ts_list.insert capped ~now:0.0 ~deadline:1.0 (summary ~tb:0.0 ~te:5.0 1.0);
  Ts_list.insert capped ~now:0.5 ~deadline:99.0 (summary ~tb:0.0 ~te:5.0 1.0);
  check_float "capped at creation + 3" 3.0 (Ts_list.next_deadline capped)

let test_disjoint_entries_sorted () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:10.0 ~te:15.0 2.0);
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:5.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:5.0 ~te:10.0 3.0);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "sorted disjoint"
    [ (0.0, 5.0); (5.0, 10.0); (10.0, 15.0) ]
    (intervals ts)

let test_partial_overlap_split () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:10.0 5.0);
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:5.0 ~te:15.0 3.0);
  (* T1' [0,5)=5, T3 [5,10)=8, T2' [10,15)=3 per §4.2. *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "three pieces"
    [ (0.0, 5.0); (5.0, 10.0); (10.0, 15.0) ]
    (intervals ts);
  Alcotest.(check (list (float 1e-9))) "values" [ 5.0; 8.0; 3.0 ] (values ts)

let test_overlap_spanning_multiple_entries () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:4.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:6.0 ~te:10.0 2.0);
  (* Spans both entries and the gap between them. *)
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:2.0 ~te:8.0 10.0);
  (* Total value over all entries is conserved-ish per region; check the
     entries stay disjoint and ordered and cover [0, 10). *)
  let iv = intervals ts in
  let rec disjoint_sorted = function
    | (_, te) :: ((tb, _) :: _ as rest) -> te <= tb +. 1e-9 && disjoint_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "disjoint and sorted" true (disjoint_sorted iv);
  check_float "covers from 0" 0.0 (fst (List.hd iv));
  check_float "covers to 10" 10.0 (snd (List.nth iv (List.length iv - 1)))

let test_pop_due () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:5.0 (summary ~tb:0.0 ~te:1.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:15.0 (summary ~tb:1.0 ~te:2.0 2.0);
  let due = Ts_list.pop_due ts ~now:10.0 in
  Alcotest.(check int) "one due" 1 (List.length due);
  Alcotest.(check int) "one left" 1 (Ts_list.length ts);
  check_float "right one" 1.0 (Value.to_float (List.hd due).Summary.value)

let test_pop_due_epsilon () =
  (* Deadlines a few ulps past now still pop — the float-rounding guard. *)
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:(5.0 +. 1e-9) (summary ~tb:0.0 ~te:1.0 1.0);
  Alcotest.(check int) "pops within epsilon" 1 (List.length (Ts_list.pop_due ts ~now:5.0))

let test_force_pop () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:100.0 (summary ~tb:0.0 ~te:1.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:100.0 (summary ~tb:1.0 ~te:2.0 2.0);
  Alcotest.(check int) "all out" 2 (List.length (Ts_list.force_pop ts ~now:0.0));
  Alcotest.(check int) "empty" 0 (Ts_list.length ts)

let test_age_weighted_average () =
  let ts = make_ts () in
  (* Tuple A: age 1.0 at arrival 0.0, count 1. Tuple B: age 3.0 at arrival
     0.0, count 3. Evicted at 2.0: ages become 3.0 and 5.0; the weighted
     average is (1*3 + 3*5) / 4 = 4.5. *)
  Ts_list.insert ts ~now:0.0 ~deadline:2.0 (summary ~age:1.0 ~count:1 ~tb:0.0 ~te:1.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:2.0 (summary ~age:3.0 ~count:3 ~tb:0.0 ~te:1.0 1.0);
  match Ts_list.pop_due ts ~now:2.0 with
  | [ s ] ->
    check_float "weighted age" 4.5 s.Summary.age;
    Alcotest.(check int) "counts add" 4 s.Summary.count
  | _ -> Alcotest.fail "expected one eviction"

let test_hops_weighted_average () =
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:2.0 (summary ~hops:2 ~count:1 ~tb:0.0 ~te:1.0 1.0);
  Ts_list.insert ts ~now:0.0 ~deadline:2.0 (summary ~hops:6 ~count:3 ~tb:0.0 ~te:1.0 1.0);
  match Ts_list.pop_due ts ~now:2.0 with
  | [ s ] -> Alcotest.(check int) "mean hops" 5 s.Summary.hops
  | _ -> Alcotest.fail "expected one eviction"

let test_boundary_extension_tuple_windows () =
  let ts = make_ts ~extend_boundaries:true () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:5.0 7.0);
  let b =
    Summary.boundary ~index:(Index.make ~tb:5.0 ~te:8.0) ~identity:sum.Op.init ~count:1
      ~age:0.0
  in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 b;
  Alcotest.(check int) "still one entry" 1 (Ts_list.length ts);
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "extended" [ (0.0, 8.0) ]
    (intervals ts);
  Alcotest.(check (list (float 1e-9))) "value unchanged" [ 7.0 ] (values ts)

let test_boundary_no_extension_for_time_windows () =
  let ts = make_ts ~extend_boundaries:false () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~tb:0.0 ~te:5.0 7.0);
  let b =
    Summary.boundary ~index:(Index.make ~tb:5.0 ~te:10.0) ~identity:sum.Op.init ~count:1
      ~age:0.0
  in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 b;
  Alcotest.(check int) "separate entry" 2 (Ts_list.length ts)

let test_counts_boundary_merge () =
  (* Boundaries merge into time-window entries as participant counts with
     identity values. *)
  let ts = make_ts () in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 (summary ~count:2 ~tb:0.0 ~te:5.0 4.0);
  let b =
    Summary.boundary ~index:(Index.make ~tb:0.0 ~te:5.0) ~identity:sum.Op.init ~count:1
      ~age:0.0
  in
  Ts_list.insert ts ~now:0.0 ~deadline:10.0 b;
  match Ts_list.entries ts with
  | [ (_, v, count, _) ] ->
    Alcotest.(check int) "count includes boundary" 3 count;
    check_float "value unchanged" 4.0 (Value.to_float v)
  | _ -> Alcotest.fail "expected one entry"

(* Property: after arbitrary inserts, entries are disjoint and sorted. *)
let prop_disjoint_invariant =
  QCheck.Test.make ~name:"ts-list entries stay disjoint and sorted" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (pair (float_range 0. 50.) (float_range 0.1 10.)))
    (fun specs ->
      let ts = make_ts () in
      List.iter
        (fun (tb, width) ->
          Ts_list.insert ts ~now:0.0 ~deadline:100.0 (summary ~tb ~te:(tb +. width) 1.0))
        specs;
      let iv = intervals ts in
      let rec ok = function
        | (tb, te) :: ((tb2, _) :: _ as rest) -> tb < te && te <= tb2 +. 1e-6 && ok rest
        | [ (tb, te) ] -> tb < te
        | [] -> true
      in
      ok iv)

(* Property: counts are conserved: total inserted count = sum over evicted
   entries (for a fixed set of exact-match windows). *)
let prop_count_conservation =
  QCheck.Test.make ~name:"counts conserved across exact-match merges" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_range 0 5) (int_range 1 4)))
    (fun specs ->
      let ts = make_ts () in
      List.iter
        (fun (slot, count) ->
          Ts_list.insert ts ~now:0.0 ~deadline:1.0
            (summary ~count ~tb:(float_of_int slot) ~te:(float_of_int slot +. 1.0) 1.0))
        specs;
      let popped = Ts_list.force_pop ts ~now:0.0 in
      let total = List.fold_left (fun acc s -> acc + s.Summary.count) 0 popped in
      total = List.fold_left (fun acc (_, c) -> acc + c) 0 specs)

let tests =
  [
    Alcotest.test_case "exact match merges" `Quick test_exact_match_merges;
    Alcotest.test_case "first deadline governs" `Quick test_exact_match_keeps_first_deadline_modulo_guard;
    Alcotest.test_case "quiescence extension" `Quick test_quiescence_extension;
    Alcotest.test_case "disjoint entries sorted" `Quick test_disjoint_entries_sorted;
    Alcotest.test_case "partial overlap split" `Quick test_partial_overlap_split;
    Alcotest.test_case "overlap spanning entries" `Quick test_overlap_spanning_multiple_entries;
    Alcotest.test_case "pop due" `Quick test_pop_due;
    Alcotest.test_case "pop due epsilon" `Quick test_pop_due_epsilon;
    Alcotest.test_case "force pop" `Quick test_force_pop;
    Alcotest.test_case "age weighted average" `Quick test_age_weighted_average;
    Alcotest.test_case "hops weighted average" `Quick test_hops_weighted_average;
    Alcotest.test_case "boundary extension (tuple windows)" `Quick
      test_boundary_extension_tuple_windows;
    Alcotest.test_case "boundary no extension (time windows)" `Quick
      test_boundary_no_extension_for_time_windows;
    Alcotest.test_case "boundary counts merge" `Quick test_counts_boundary_merge;
    QCheck_alcotest.to_alcotest prop_disjoint_invariant;
    QCheck_alcotest.to_alcotest prop_count_conservation;
  ]
