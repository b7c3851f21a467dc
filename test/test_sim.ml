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
  Engine.cancel e h;
  Alcotest.(check int) "no longer pending" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  (* The handle is stale once its event left the queue: cancelling it
     again must not hit the event that now reuses its slot. *)
  let later = ref false in
  ignore (Engine.schedule e ~after:1.0 (fun () -> later := true));
  Engine.cancel e h;
  Engine.cancel e Engine.no_handle;
  Alcotest.(check int) "stale cancel is a no-op" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "reused slot fires" true !later

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
  Engine.cancel e handles.(3);
  Engine.cancel e handles.(7);
  Engine.cancel e handles.(7);
  (* double cancel must not double count *)
  Alcotest.(check int) "cancelled excluded" 8 (Engine.pending e);
  Engine.run ~until:5.0 e;
  (* Events 1,2,4,5 fired (3 was cancelled); 6,8,9,10 remain live. *)
  Alcotest.(check int) "after partial run" 4 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* Differential check of the engine against a sorted-list model. Each
   queued event is [(time, seq, id, live)]; the model pops in
   (time, seq) order, drops cancelled entries without touching the clock,
   and clamps past times to now, as the engine's contract says. Cancels
   name any handle ever issued, so they cover live, stale (fired or
   popped), double and sentinel cancels. *)
type op =
  | Sched of int (* delay in quarter seconds; negative clamps to now *)
  | Post of int
  | Cancel of int (* index into the handles issued so far; -1 = no_handle *)
  | Run_until of int
  | Run_before of int
  | Step
  | Run_all

let show_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Post d -> Printf.sprintf "Post %d" d
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Run_until t -> Printf.sprintf "Run_until %d" t
  | Run_before t -> Printf.sprintf "Run_before %d" t
  | Step -> "Step"
  | Run_all -> "Run_all"

type model = {
  mutable m_now : float;
  mutable queue : (float * int * int * bool ref) list; (* sorted by (time, seq) *)
  mutable m_seq : int;
  mutable m_fired : int;
  mutable m_log : int list;
}

let model_add m at id =
  let at = if at < m.m_now then m.m_now else at in
  let live = ref true in
  let entry = (at, m.m_seq, id, live) in
  m.m_seq <- m.m_seq + 1;
  m.queue <-
    List.merge (fun (t1, s1, _, _) (t2, s2, _, _) -> compare (t1, s1) (t2, s2)) m.queue [ entry ];
  live

(* Pop the head; [true] when it was live (and so fired). *)
let model_pop m =
  match m.queue with
  | [] -> false
  | (at, _, id, live) :: rest ->
    m.queue <- rest;
    if !live then begin
      live := false;
      m.m_now <- at;
      m.m_fired <- m.m_fired + 1;
      m.m_log <- id :: m.m_log;
      true
    end
    else false

let model_next m = match m.queue with [] -> infinity | (at, _, _, _) :: _ -> at

let model_run_while m keep =
  while (not (List.is_empty m.queue)) && keep (model_next m) do
    ignore (model_pop m)
  done

let prop_engine_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun d -> Sched d) (int_range (-2) 12));
          (3, map (fun d -> Post d) (int_range (-2) 12));
          (4, map (fun i -> Cancel i) (int_range (-1) 30));
          (2, map (fun t -> Run_until t) (int_bound 40));
          (2, map (fun t -> Run_before t) (int_bound 40));
          (2, return Step);
          (1, return Run_all);
        ])
  in
  QCheck.Test.make ~name:"engine = sorted-list model" ~count:500
    (QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let e = Engine.create () in
      let m = { m_now = 0.0; queue = []; m_seq = 0; m_fired = 0; m_log = [] } in
      let log = ref [] in
      let handles = ref [||] and lives = ref [||] in
      let next_id = ref 0 in
      let on_post id = log := id :: !log in
      let quarter d = float_of_int d /. 4.0 in
      let apply = function
        | Sched d ->
          let id = !next_id in
          incr next_id;
          let h = Engine.schedule e ~after:(quarter d) (fun () -> log := id :: !log) in
          let after = Float.max 0.0 (quarter d) in
          let live = model_add m (m.m_now +. after) id in
          handles := Array.append !handles [| h |];
          lives := Array.append !lives [| live |];
          true
        | Post d ->
          let id = !next_id in
          incr next_id;
          Engine.post e ~at:(Engine.now e +. quarter d) on_post id;
          ignore (model_add m (m.m_now +. quarter d) id);
          true
        | Cancel i ->
          if i < 0 then Engine.cancel e Engine.no_handle
          else if i < Array.length !handles then begin
            Engine.cancel e !handles.(i);
            !lives.(i) := false
          end;
          true
        | Run_until t ->
          let stop = quarter t in
          Engine.run ~until:stop e;
          model_run_while m (fun at -> at <= stop);
          if m.m_now < stop then m.m_now <- stop;
          true
        | Run_before t ->
          let bound = quarter t in
          Engine.run_before e bound;
          model_run_while m (fun at -> at < bound);
          if m.m_now < bound then m.m_now <- bound;
          true
        | Step ->
          let rec go () = (not (List.is_empty m.queue)) && (model_pop m || go ()) in
          Engine.step e = go ()
        | Run_all ->
          Engine.run e;
          model_run_while m (fun _ -> true);
          true
      in
      List.for_all
        (fun op ->
          apply op
          && Float.equal (Engine.now e) m.m_now
          && Float.equal (Engine.next_time e) (model_next m)
          && Engine.pending e = List.length (List.filter (fun (_, _, _, l) -> !l) m.queue)
          && Engine.fired e = m.m_fired
          && !log = m.m_log)
        ops)

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
  check_float "sum [2,5)" (2.0 +. 3.0 +. 4.0) (Series.sum_between s 2.0 5.0)

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
    QCheck_alcotest.to_alcotest prop_engine_model;
  ]
