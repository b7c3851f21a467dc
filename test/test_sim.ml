(* Tests for the discrete-event engine, clocks, and metric series. *)

module Engine = Mortar_sim.Engine
module Clock = Mortar_sim.Clock
module Series = Mortar_sim.Series

let check_float = Alcotest.(check (float 1e-9))

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:2.0 (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~after:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:3.0 (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_tie_break_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~after:5.5 (fun () -> seen := Engine.now e));
  Engine.run e;
  check_float "time at event" 5.5 !seen

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check bool) "cancelled flag" true (Engine.cancelled h)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "five fired" 5 !count;
  check_float "clock at until" 5.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         times := Engine.now e :: !times;
         ignore (Engine.schedule e ~after:1.0 (fun () -> times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested" [ 1.0; 2.0 ] (List.rev !times)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(-5.0) (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "fires" true !fired;
  check_float "clock not negative" 0.0 (Engine.now e)

let test_engine_pending_counts_cancellations () =
  let e = Engine.create () in
  let handles = Array.init 10 (fun i -> Engine.schedule e ~after:(float_of_int (i + 1)) ignore) in
  Alcotest.(check int) "all queued" 10 (Engine.pending e);
  Engine.cancel handles.(3);
  Engine.cancel handles.(7);
  Engine.cancel handles.(7);
  (* double cancel must not double count *)
  Alcotest.(check int) "cancelled excluded" 8 (Engine.pending e);
  Engine.run ~until:5.0 e;
  (* Events 1,2,4,5 fired (3 was cancelled); 6,8,9,10 remain live. *)
  Alcotest.(check int) "after partial run" 4 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_clock_offset_skew () =
  let c = Clock.create ~offset:10.0 ~skew:0.01 () in
  check_float "at zero" 10.0 (Clock.local_time c ~now:0.0);
  check_float "with skew" (101.0 +. 10.0) (Clock.local_time c ~now:100.0)

let test_clock_synchronized () =
  check_float "identity" 123.45 (Clock.local_time Clock.synchronized ~now:123.45)

let test_clock_planetlab_distribution () =
  let rng = Mortar_util.Rng.create 17 in
  let offsets = Mortar_sim.Clock.planetlab_offsets rng ~scale:1.0 ~n:5000 in
  let big = Array.to_list offsets |> List.filter (fun x -> abs_float x > 0.5) in
  let frac = float_of_int (List.length big) /. 5000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "~20%% beyond half a second (got %.2f)" frac)
    true
    (frac > 0.12 && frac < 0.40);
  let huge = Array.to_list offsets |> List.filter (fun x -> abs_float x > 100.0) in
  Alcotest.(check bool) "a handful in the huge tail" true (List.length huge > 0);
  (* Scale 0 = perfect sync. *)
  let zeros = Mortar_sim.Clock.planetlab_offsets rng ~scale:0.0 ~n:100 in
  Alcotest.(check bool) "scale 0 all zero" true (Array.for_all (fun x -> x = 0.0) zeros)

let test_series_buckets () =
  let s = Series.create ~bucket:1.0 in
  Series.add s ~time:0.5 10.0;
  Series.add s ~time:0.9 20.0;
  Series.add s ~time:2.5 5.0;
  let rows = Series.rows s in
  Alcotest.(check int) "three buckets" 3 (List.length rows);
  let r0 = List.nth rows 0 in
  Alcotest.(check int) "bucket 0 count" 2 r0.Series.count;
  check_float "bucket 0 mean" 15.0 r0.Series.mean;
  let r1 = List.nth rows 1 in
  Alcotest.(check int) "bucket 1 empty" 0 r1.Series.count

let test_series_between () =
  let s = Series.create ~bucket:1.0 in
  for i = 0 to 9 do
    Series.add s ~time:(float_of_int i +. 0.5) (float_of_int i)
  done;
  check_float "sum [2,5)" (2.0 +. 3.0 +. 4.0) (Series.sum_between s 2.0 5.0);
  check_float "mean [2,5)" 3.0 (Series.mean_between s 2.0 5.0)

let test_series_incr () =
  let s = Series.create ~bucket:2.0 in
  Series.incr s ~time:1.0 100.0;
  Series.incr s ~time:1.5 50.0;
  check_float "summed" 150.0 (Series.sum_between s 0.0 2.0)

let tests =
  [
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine fifo ties" `Quick test_engine_tie_break_fifo;
    Alcotest.test_case "engine clock advances" `Quick test_engine_clock_advances;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine negative delay" `Quick test_engine_negative_delay_clamped;
    Alcotest.test_case "engine pending counter" `Quick test_engine_pending_counts_cancellations;
    Alcotest.test_case "clock offset/skew" `Quick test_clock_offset_skew;
    Alcotest.test_case "clock synchronized" `Quick test_clock_synchronized;
    Alcotest.test_case "clock planetlab distribution" `Quick test_clock_planetlab_distribution;
    Alcotest.test_case "series buckets" `Quick test_series_buckets;
    Alcotest.test_case "series between" `Quick test_series_between;
    Alcotest.test_case "series incr" `Quick test_series_incr;
  ]
