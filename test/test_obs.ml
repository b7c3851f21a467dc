(* The observability layer: bucket semantics, the gated default
   registry, and JSON-lines round-trips. Every read goes through the
   dumps (see dump.ml), as a user's would. *)

module Obs = Mortar_obs.Obs
module J = Mortar_obs.Obs_json

(* Run [f] against a cleared default registry with recording on, then
   restore the gate and clear the registry again. Gauges and histograms
   are written only through the gated wrappers, which record there. *)
let with_default f =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := true;
      f ())

let test_histogram_edges () =
  with_default (fun () ->
      let buckets = [| 1.0; 2.0; 4.0 |] in
      (* Upper edges are inclusive: v lands in the first bucket with
         v <= edge. Exercise both sides of every edge plus overflow. *)
      List.iter (fun v -> Obs.observe ~buckets "lat" v) [ 0.5; 1.0; 1.5; 2.0; 3.9; 4.0; 4.1; 100.0 ];
      let edges () =
        match Dump.histogram Obs.default "lat" with
        | Some (J.Histogram { buckets; _ }) -> buckets
        | _ -> Alcotest.fail "lat: histogram missing"
      in
      Alcotest.(check (array (float 0.0))) "edges kept" buckets (edges ());
      (match Dump.histogram Obs.default "lat" with
      | Some (J.Histogram { counts; overflow; sum; count; _ }) ->
        Alcotest.(check (array (float 0.0))) "le-boundary counts" [| 2.0; 2.0; 2.0 |] counts;
        Alcotest.(check (float 0.0)) "overflow" 2.0 overflow;
        Alcotest.(check (float 0.0)) "count" 8.0 count;
        Alcotest.(check (float 1e-9)) "sum" 117.0 sum
      | _ -> Alcotest.fail "lat: histogram missing");
      (* Buckets are fixed on first observation; a later conflicting
         request is ignored rather than resizing the histogram under the
         caller. *)
      Obs.observe ~buckets:[| 10.0 |] "lat" 0.1;
      Alcotest.(check (array (float 0.0))) "buckets fixed after first observation" buckets
        (edges ()))

let test_gating () =
  with_default (fun () ->
      Obs.enabled := false;
      Obs.incr "gated";
      Obs.observe "gated_h" 1.0;
      Obs.trace ~t:0.0 (Obs.Node_down { node = 0 });
      Alcotest.(check int) "disabled incr is a no-op" 0 (Dump.counters Obs.default "gated");
      Alcotest.(check bool) "disabled observe is a no-op" true
        (Dump.histogram Obs.default "gated_h" = None);
      Alcotest.(check int) "disabled trace is a no-op" 0 (List.length (Dump.events Obs.default));
      Obs.enabled := true;
      Obs.incr "gated";
      Obs.trace ~t:2.5 (Obs.Node_down { node = 0 });
      Alcotest.(check int) "enabled incr records" 1 (Dump.counters Obs.default "gated");
      Alcotest.(check int) "enabled trace records" 1 (List.length (Dump.events Obs.default)))

let test_trace_cap () =
  let r = Obs.Reg.create () and cap = 262_144 in
  for i = 1 to cap + 2 do
    Obs.Reg.trace r ~t:(float_of_int i) (Obs.Node_down { node = i })
  done;
  Alcotest.(check int) "capped at trace_cap" cap (List.length (Obs.Reg.trace_lines r));
  (* Truncation surfaces in the dump as a synthetic counter. *)
  Alcotest.(check int) "drops counted" 2 (Dump.counters r "obs.trace_dropped")

let test_metrics_roundtrip () =
  with_default @@ fun () ->
  Obs.incr ~by:42 "sent";
  Obs.incr ~scope:(Obs.Node 7) ~by:3 "sent";
  Obs.set_gauge ~scope:(Obs.Query "q1") "load" 0.125;
  Obs.observe ~buckets:[| 1.0; 2.0 |] "age" 1.5;
  Obs.observe ~buckets:[| 1.0; 2.0 |] "age" 9.0;
  let parsed = Dump.metrics Obs.default in
  Alcotest.(check int) "all metrics emitted" 4 (List.length parsed);
  let find name =
    List.find_opt (fun m -> J.metric_name m = name && J.metric_scope m = "global") parsed
  in
  (match find "sent" with
  | Some (J.Counter { value; _ }) -> Alcotest.(check (float 0.0)) "counter value" 42.0 value
  | _ -> Alcotest.fail "global sent missing");
  (match find "age" with
  | Some (J.Histogram { buckets; counts; overflow; sum; count; _ }) ->
    Alcotest.(check (array (float 0.0))) "edges round-trip" [| 1.0; 2.0 |] buckets;
    Alcotest.(check (array (float 0.0))) "bucket counts round-trip" [| 0.0; 1.0 |] counts;
    Alcotest.(check (float 0.0)) "overflow round-trip" 1.0 overflow;
    Alcotest.(check (float 1e-9)) "sum round-trip" 10.5 sum;
    Alcotest.(check (float 0.0)) "count round-trip" 2.0 count
  | _ -> Alcotest.fail "age histogram missing");
  (* Emission order is sorted (scope, name): stable across runs. *)
  let keys = List.map (fun m -> (J.metric_scope m, J.metric_name m)) parsed in
  Alcotest.(check bool) "sorted (scope, name)" true (keys = List.sort compare keys)

(* Position of each constructor in [Obs.event]. No wildcard: a new
   constructor does not compile until it has a case here, and then the
   round-trip below needs a sample of it. *)
let event_ordinal : Obs.event -> int = function
  | Obs.Tuple_send _ -> 0
  | Obs.Tuple_recv _ -> 1
  | Obs.Tuple_drop _ -> 2
  | Obs.Ts_merge _ -> 3
  | Obs.Orphaned _ -> 4
  | Obs.Reparent _ -> 5
  | Obs.Reconcile_round _ -> 6
  | Obs.Query_install _ -> 7
  | Obs.Window_close _ -> 8
  | Obs.Node_down _ -> 9
  | Obs.Node_up _ -> 10
  | Obs.Crash _ -> 11
  | Obs.Fault_start _ -> 12
  | Obs.Fault_stop _ -> 13
  | Obs.Result _ -> 14

let event_constructors = 15

let test_trace_roundtrip () =
  let r = Obs.Reg.create () in
  let evs =
    [
      (0.25, Obs.Tuple_send { src = 1; dst = 2; kind = "data"; size = 96 });
      (0.3, Obs.Tuple_recv { src = 2; dst = 1; kind = "heartbeat" });
      (0.5, Obs.Tuple_drop { src = 4; dst = -1; kind = "data"; reason = "routing" });
      (0.5, Obs.Ts_merge { node = 5; query = "q\"1" });
      (0.75, Obs.Orphaned { node = 7; query = "peer-count" });
      ( 0.875,
        Obs.Reparent
          {
            node = 8;
            query = "peer-count";
            tree = 1;
            from_parent = 3;
            to_parent = 12;
            donor = "sibling";
          } );
      (1.0, Obs.Reconcile_round { node = 3; partner = 9 });
      (1.125, Obs.Query_install { node = 0; query = "cpu/sum" });
      (1.25, Obs.Window_close { slot = 7; count = 188 });
      (1.5, Obs.Node_down { node = 11 });
      (1.75, Obs.Node_up { node = 11 });
      (1.875, Obs.Crash { node = 11 });
      (1.9, Obs.Fault_start { fault = "phase fail \"half\"" });
      (1.95, Obs.Fault_stop { fault = "partition_stub:3" });
      ( 2.0,
        Obs.Result
          {
            query = "peer-count";
            slot = 2;
            count = 24;
            value = 24.0;
            hops = 3;
            hops_max = 5;
            age = 0.75;
            prov = [ (2, 20); (3, 4) ];
          } );
    ]
  in
  Alcotest.(check (list int)) "one sample per constructor"
    (List.init event_constructors Fun.id)
    (List.sort_uniq compare (List.map (fun (_, e) -> event_ordinal e) evs));
  List.iter (fun (t, e) -> Obs.Reg.trace r ~t e) evs;
  let back = Dump.events r in
  Alcotest.(check int) "all events emitted" (List.length evs) (List.length back);
  List.iter2
    (fun (t, e) (t', e') ->
      Alcotest.(check (float 0.0)) "stamp round-trips" t t';
      Alcotest.(check bool) "event round-trips" true (e = e'))
    evs back

(* Fuzzing: the JSON reader and the two line decoders read files back
   from disk, so arbitrary bytes and mutated valid dump lines must come
   back as [Error], never as an exception. *)
let dump_lines =
  lazy
    (with_default @@ fun () ->
     Obs.incr ~scope:(Obs.Node 7) ~by:3 "sent";
     Obs.set_gauge ~scope:(Obs.Query "q\"1") "load" 0.125;
     Obs.observe ~buckets:[| 1.0; 2.0 |] "age" 9.0;
     List.iter
       (fun (t, e) -> Obs.trace ~t e)
       [
         (0.25, Obs.Tuple_send { src = 1; dst = 2; kind = "data"; size = 96 });
         (1.0, Obs.Window_close { slot = -3; count = 12 });
         ( 2.0,
           Obs.Result
             {
               query = "peer-count";
               slot = 2;
               count = 24;
               value = 1e-7;
               hops = 3;
               hops_max = 5;
               age = 0.75;
               prov = [ (2, 20); (3, 4) ];
             } );
         (3.0, Obs.Fault_start { fault = "tab\tand \\u" });
       ];
     Array.of_list (Obs.Reg.metrics_lines Obs.default @ Obs.Reg.trace_lines Obs.default))

let mutate_line =
  QCheck.Gen.(
    let* i = int_bound (Array.length (Lazy.force dump_lines) - 1) in
    let w = (Lazy.force dump_lines).(i) in
    let n = String.length w in
    let splice i j mid = String.sub w 0 i ^ mid ^ String.sub w j (n - j) in
    frequency
      [
        (2, map (fun k -> String.sub w 0 k) (int_bound n));
        (4, map2 (fun i c -> splice i (min n (i + 1)) (String.make 1 c)) (int_bound n) char);
        ( 3,
          map2
            (fun i f -> splice i i f)
            (int_bound n)
            (oneofl
               [ "\\u"; "\\u00"; "\\u0fff"; "\\"; "\""; "["; "]"; "{"; "}"; ","; ":"; "-";
                 "1e400"; "null"; "-." ]) );
        (2, map2 (fun i len -> splice i (min n (i + len)) "") (int_bound n) (int_range 1 8));
        (1, string_size ~gen:char (int_range 0 60));
      ])

let prop_obs_json_fuzz =
  QCheck.Test.make ~name:"obs_json fuzz: decoders never raise" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") mutate_line)
    (fun line ->
      ignore (J.parse line);
      ignore (J.metric_of_line line);
      ignore (J.event_of_line line);
      true)

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "default registry gating" `Quick test_gating;
    Alcotest.test_case "trace cap" `Quick test_trace_cap;
    Alcotest.test_case "metrics sink round-trip" `Quick test_metrics_roundtrip;
    Alcotest.test_case "trace sink round-trip" `Quick test_trace_roundtrip;
    QCheck_alcotest.to_alcotest prop_obs_json_fuzz;
  ]
