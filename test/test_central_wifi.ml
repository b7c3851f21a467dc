(* Tests for the centralized processor (BSort + windows) and the Wi-Fi
   workload substrate. *)

module Bsort = Mortar_central.Bsort
module Processor = Mortar_central.Processor
module Wifi = Mortar_wifi.Wifi
module Value = Mortar_core.Value
module Rng = Mortar_util.Rng

(* ------------------------------------------------------------------ *)
(* BSort *)

let test_bsort_reorders_within_capacity () =
  let b = Bsort.create ~capacity:10 in
  let out = ref [] in
  let ts_list = [ 5.0; 3.0; 8.0; 1.0; 9.0; 2.0 ] in
  List.iter (fun ts -> match Bsort.push b ~ts () with Some (t, ()) -> out := t :: !out | None -> ()) ts_list;
  let rest = List.map fst (Bsort.flush b) in
  let all = List.rev !out @ rest in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort compare ts_list) all

let test_bsort_capacity_limits_disorder () =
  (* A tuple more than [capacity] positions out of place emerges out of
     order. *)
  let b = Bsort.create ~capacity:3 in
  let emitted = ref [] in
  let push ts = match Bsort.push b ~ts () with Some (t, ()) -> emitted := t :: !emitted | None -> () in
  List.iter push [ 10.0; 20.0; 30.0; 40.0 ];
  (* Buffer holds 3; pushing 40 released 10. Now a very late tuple: *)
  push 1.0;
  let all = List.rev !emitted @ List.map fst (Bsort.flush b) in
  Alcotest.(check bool) "out of order beyond capacity" true (all <> List.sort compare all)

let test_bsort_length () =
  let b = Bsort.create ~capacity:5 in
  ignore (Bsort.push b ~ts:1.0 ());
  ignore (Bsort.push b ~ts:2.0 ());
  Alcotest.(check int) "length" 2 (Bsort.length b)

(* ------------------------------------------------------------------ *)
(* Processor *)

(* A processor whose reported windows accumulate in a list, oldest
   first. *)
let processor ~slide =
  let got = ref [] in
  let p = Processor.create ~slide ~on_result:(fun r -> got := r :: !got) in
  (p, fun () -> List.rev !got)

let test_processor_windows () =
  let p, results = processor ~slide:5.0 in
  (* 3 tuples in window 0, 2 in window 1, in arrival order with slight
     disorder. Clocks are exact, so each tuple's true slot is its
     timestamp's: a window's provenance is its slot and count. *)
  List.iter
    (fun ts -> Processor.push p ~now:ts ~ts ~true_slot:(Mortar_core.Index.slot ~slide:5.0 ts))
    [ 1.0; 3.0; 2.0; 6.0; 8.0 ];
  Processor.drain p ~now:10.0;
  match results () with
  | [ r0; r1 ] ->
    Alcotest.(check (list (pair int int))) "window 0 slot and count" [ (0, 3) ] r0.Processor.prov;
    Alcotest.(check (list (pair int int))) "window 1 count" [ (1, 2) ] r1.Processor.prov;
    (* Five tuples never fill the 5000-tuple buffer: both windows close
       at the drain. *)
    Alcotest.(check (list (float 0.0))) "closed at drain" [ 10.0; 10.0 ]
      [ r0.Processor.closed_at; r1.Processor.closed_at ]
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 windows, got %d" (List.length rs))

let test_processor_misassigns_under_offset () =
  let p, results = processor ~slide:5.0 in
  (* Two sources, one with a +7 s clock offset: its tuples land in the
     wrong window even though they were created simultaneously. *)
  for k = 0 to 9 do
    let t = float_of_int k in
    let true_slot = Mortar_core.Index.slot ~slide:5.0 t in
    Processor.push p ~now:t ~ts:t ~true_slot;
    Processor.push p ~now:t ~ts:(t +. 7.0) ~true_slot
  done;
  Processor.drain p ~now:20.0;
  (* No single reported window contains all 10 tuples of true slot 0. *)
  let best =
    List.fold_left
      (fun acc r ->
        let n = Option.value (List.assoc_opt 0 r.Processor.prov) ~default:0 in
        max acc n)
      0 (results ())
  in
  Alcotest.(check bool) "true window split" true (best < 10);
  Alcotest.(check bool) "but some grouping" true (best >= 5)

(* ------------------------------------------------------------------ *)
(* Wifi *)

let test_building_layout () =
  let sniffers = Wifi.building_sniffers () in
  Alcotest.(check int) "188 sniffers" 188 (Array.length sniffers);
  let floors = Array.to_list sniffers |> List.map (fun s -> s.Wifi.floor) |> List.sort_uniq compare in
  Alcotest.(check (list int)) "four floors" [ 0; 1; 2; 3 ] floors

let test_walk_stays_in_building () =
  for k = 0 to 100 do
    let t = 240.0 *. float_of_int k /. 100.0 in
    let x, y, floor = Wifi.l_path ~t ~duration:240.0 in
    Alcotest.(check bool) "floor in range" true (floor >= 0 && floor <= 3);
    Alcotest.(check bool) "position in L" true
      ((x >= 0.0 && x <= 60.0 && y >= 0.0 && y <= 15.0)
      || (x >= 0.0 && x <= 15.0 && y >= 0.0 && y <= 60.0))
  done

let test_walk_descends_floors () =
  let _, _, f0 = Wifi.l_path ~t:1.0 ~duration:240.0 in
  let _, _, f3 = Wifi.l_path ~t:239.0 ~duration:240.0 in
  Alcotest.(check int) "starts on top floor" 3 f0;
  Alcotest.(check int) "ends on ground floor" 0 f3

let test_rssi_decays_with_distance () =
  let rng = Rng.create 91 in
  let sniffer = { Wifi.x = 0.0; y = 0.0; floor = 0 } in
  let mean_rssi ~x =
    let samples =
      List.init 200 (fun _ ->
          match Wifi.rssi rng ~sniffer ~x ~y:0.0 ~floor:0 with Some r -> r | None -> -95.0)
    in
    Mortar_util.Stats.mean (Array.of_list samples)
  in
  Alcotest.(check bool) "closer is louder" true (mean_rssi ~x:2.0 > mean_rssi ~x:30.0)

let test_rssi_floor_penalty () =
  let rng = Rng.create 92 in
  let sniffer = { Wifi.x = 0.0; y = 0.0; floor = 0 } in
  let mean ~floor =
    let samples =
      List.init 200 (fun _ ->
          match Wifi.rssi rng ~sniffer ~x:3.0 ~y:0.0 ~floor with Some r -> r | None -> -95.0)
    in
    Mortar_util.Stats.mean (Array.of_list samples)
  in
  Alcotest.(check bool) "same floor louder" true (mean ~floor:0 > mean ~floor:2)

let test_frame_record_fields () =
  let rng = Rng.create 93 in
  let sniffer = { Wifi.x = 5.0; y = 6.0; floor = 1 } in
  match Wifi.frame rng ~sniffer ~mac:"m" ~x:5.0 ~y:6.0 ~floor:1 with
  | Some f ->
    Alcotest.(check string) "mac" "m" (Value.to_string (Value.field f "mac"));
    Alcotest.(check (float 1e-9)) "x" 5.0 (Value.to_float (Value.field f "x"));
    Alcotest.(check int) "floor" 1 (Value.to_int (Value.field f "floor"))
  | None -> Alcotest.fail "adjacent frame must be heard"

let test_trilaterate_recovers_position () =
  (* Perfect (noise-free) RSSI values from three sniffers around the true
     position; the weighted centroid lands nearby. *)
  let true_x = 10.0 and true_y = 10.0 in
  let obs =
    List.map
      (fun (sx, sy) ->
        let d = max 1.0 (sqrt (((sx -. true_x) ** 2.0) +. ((sy -. true_y) ** 2.0))) in
        let rssi = -40.0 -. (10.0 *. 2.7 *. log10 d) in
        (sx, sy, rssi))
      [ (8.0, 10.0); (12.0, 8.0); (10.0, 13.0) ]
  in
  match Wifi.trilaterate obs with
  | Some (x, y) ->
    Alcotest.(check bool)
      (Printf.sprintf "close (%.1f, %.1f)" x y)
      true
      (abs_float (x -. true_x) < 2.5 && abs_float (y -. true_y) < 2.5)
  | None -> Alcotest.fail "expected a position"

let test_trilaterate_empty () =
  Alcotest.(check bool) "no observations" true (Wifi.trilaterate [] = None)

let test_trilat_operator () =
  Wifi.register_trilat ();
  let impl = Mortar_core.Op.compile (Mortar_core.Op.Custom { name = "trilat"; args = [] }) in
  let frame x y rssi =
    Value.Record
      [ ("x", Value.Float x); ("y", Value.Float y); ("rssi", Value.Float rssi) ]
  in
  let partial =
    List.fold_left
      (fun acc f -> impl.Mortar_core.Op.merge acc (impl.Mortar_core.Op.lift f))
      impl.Mortar_core.Op.init
      [ frame 0.0 0.0 (-50.0); frame 2.0 0.0 (-50.0); frame 1.0 2.0 (-50.0);
        frame 50.0 50.0 (-89.0) (* weak outlier, pushed out of the top 3 *) ]
  in
  match impl.Mortar_core.Op.finalize partial with
  | Value.Record _ as r ->
    let x = Value.to_float (Value.field r "x") and y = Value.to_float (Value.field r "y") in
    Alcotest.(check bool) "centroid of the loud three" true
      (x > 0.0 && x < 2.5 && y > -0.5 && y < 2.5)
  | _ -> Alcotest.fail "expected a position record"

let test_estimate_distance_inverts () =
  let d = 17.0 in
  let rssi = -40.0 -. (10.0 *. 2.7 *. log10 d) in
  Alcotest.(check bool) "inverse" true (abs_float (Wifi.estimate_distance rssi -. d) < 0.01)

let tests =
  [
    Alcotest.test_case "bsort reorders" `Quick test_bsort_reorders_within_capacity;
    Alcotest.test_case "bsort capacity limit" `Quick test_bsort_capacity_limits_disorder;
    Alcotest.test_case "bsort length" `Quick test_bsort_length;
    Alcotest.test_case "processor windows" `Quick test_processor_windows;
    Alcotest.test_case "processor misassigns under offset" `Quick
      test_processor_misassigns_under_offset;
    Alcotest.test_case "building layout" `Quick test_building_layout;
    Alcotest.test_case "walk stays in building" `Quick test_walk_stays_in_building;
    Alcotest.test_case "walk descends floors" `Quick test_walk_descends_floors;
    Alcotest.test_case "rssi decays" `Quick test_rssi_decays_with_distance;
    Alcotest.test_case "rssi floor penalty" `Quick test_rssi_floor_penalty;
    Alcotest.test_case "frame record" `Quick test_frame_record_fields;
    Alcotest.test_case "trilaterate recovers" `Quick test_trilaterate_recovers_position;
    Alcotest.test_case "trilaterate empty" `Quick test_trilaterate_empty;
    Alcotest.test_case "trilat operator" `Quick test_trilat_operator;
    Alcotest.test_case "estimate distance" `Quick test_estimate_distance_inverts;
  ]
