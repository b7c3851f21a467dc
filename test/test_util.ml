(* Unit and property tests for Mortar_util: rng, heap, ewma, stats, vec,
   and the peer's lean tables (lazy_tbl, int_float_map). *)

module Rng = Mortar_util.Rng
module Heap = Mortar_util.Heap
module Ewma = Mortar_util.Ewma
module Stats = Mortar_util.Stats
module Vec = Mortar_util.Vec
module Lazy_tbl = Mortar_util.Lazy_tbl
module Int_float_map = Mortar_util.Int_float_map

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let child = Rng.split a in
  (* The child must not replay the parent's stream. *)
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0, 17)" true (x >= 0 && x < 17)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10000 do
    let x = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0, 3.5)" true (x >= 0.0 && x < 3.5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 99 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng 2.0 4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 3" true (abs_float (mean -. 3.0) < 0.02)

let test_rng_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 50000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:1.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean ~1" true (abs_float (Stats.mean xs -. 1.0) < 0.05);
  Alcotest.(check bool) "std ~2" true (abs_float (Stats.stddev xs -. 2.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 3 in
  let arr = Array.init 30 Fun.id in
  let s = Rng.sample rng arr 10 in
  Alcotest.(check int) "10 elements" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.to_list sorted |> List.sort_uniq compare in
  Alcotest.(check int) "all distinct" 10 (List.length distinct)

let test_rng_pareto_above_xm () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above scale" true (Rng.pareto rng ~xm:0.5 ~alpha:1.2 >= 0.5)
  done

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  let rng = Rng.create 13 in
  let xs = List.init 500 (fun _ -> Rng.int rng 1000) in
  List.iter (Heap.push h) xs;
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  let out = drain [] in
  Alcotest.(check (list int)) "heap sort" (List.sort compare xs) out

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_peek_stable () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 5;
  Heap.push h 2;
  Heap.push h 9;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "length unchanged" 3 (Heap.length h)

let prop_heap_ordering =
  QCheck.Test.make ~name:"heap pops in nondecreasing order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      let out = drain [] in
      List.sort compare xs = out)

(* ------------------------------------------------------------------ *)
(* Ewma *)

let test_ewma_first_sample () =
  let e = Ewma.create () in
  Alcotest.(check (option (float 0.0))) "empty" None (Ewma.value e);
  Ewma.update e 10.0;
  check_float "first sample" 10.0 (Ewma.value_or e nan)

let test_ewma_converges () =
  let e = Ewma.create () in
  Ewma.update e 0.0;
  for _ = 1 to 200 do
    Ewma.update e 4.0
  done;
  Alcotest.(check bool) "converged" true (abs_float (Ewma.value_or e nan -. 4.0) < 1e-6)

let test_ewma_samples_counted () =
  let e = Ewma.create () in
  Ewma.update e 1.0;
  Ewma.update e 2.0;
  Alcotest.(check int) "two samples" 2 (Ewma.samples e)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_std () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean xs);
  Alcotest.(check bool) "std" true (abs_float (Stats.stddev xs -. 2.138) < 0.01)

let test_stats_percentiles () =
  let xs = Array.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p90" 90.0 (Stats.percentile xs 90.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0)

let test_stats_percentile_interpolates () =
  let xs = [| 10.0; 20.0 |] in
  check_float "p50 interpolated" 15.0 (Stats.percentile xs 50.0)

let test_stats_empty () =
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean [||]));
  Alcotest.(check bool) "percentile nan" true (Float.is_nan (Stats.percentile [||] 50.0))

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.)) (float_range 0. 100.))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let lo = Array.fold_left min infinity arr and hi = Array.fold_left max neg_infinity arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_arithmetic () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-9))) "sub" [| 3.0; 3.0; 3.0 |] (Vec.sub b a);
  check_float "dot" 32.0 (Vec.dot a b);
  check_float "norm" 5.0 (Vec.norm [| 3.0; 4.0 |])

let test_vec_dist () =
  check_float "dist" 5.0 (Vec.dist [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  check_float "dist_sq" 25.0 (Vec.dist_sq [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_vec_centroid () =
  let c = Vec.centroid [ [| 0.0; 0.0 |]; [| 2.0; 4.0 |] ] in
  Alcotest.(check (array (float 1e-9))) "centroid" [| 1.0; 2.0 |] c

let test_vec_unit_or () =
  let u = Vec.unit_or [| 3.0; 4.0 |] ~fallback:[| 1.0; 0.0 |] in
  check_float "unit norm" 1.0 (Vec.norm u);
  let f = Vec.unit_or [| 0.0; 0.0 |] ~fallback:[| 1.0; 0.0 |] in
  Alcotest.(check (array (float 1e-9))) "fallback" [| 1.0; 0.0 |] f

(* Lazy_tbl against the Hashtbl it wraps: the same operation sequence
   gives the same bindings, length and (sorted) fold at every step, and
   the wrapper is allocated exactly when a write has happened. Keys come
   from a small range so hits, misses and overwrites all occur. *)
type tbl_op = Find of int | Replace of int * int | Remove of int

let gen_tbl_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Find k) (int_bound 9));
        (4, map2 (fun k v -> Replace (k, v)) (int_bound 9) (int_bound 100));
        (2, map (fun k -> Remove k) (int_bound 9));
      ])

let show_tbl_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

let prop_lazy_tbl_matches_hashtbl =
  QCheck.Test.make ~name:"lazy_tbl = Hashtbl" ~count:300
    QCheck.(
      make ~print:(fun l -> String.concat "; " (List.map show_tbl_op l))
        Gen.(list_size (int_bound 60) gen_tbl_op))
    (fun ops ->
      let lt = Lazy_tbl.create 8 and h = Hashtbl.create 8 in
      let written = ref false in
      let sorted_fold fold tbl = fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
      List.for_all
        (fun op ->
          let found =
            match op with
            | Find k -> Lazy_tbl.find_opt lt k = Hashtbl.find_opt h k
            | Replace (k, v) ->
              Lazy_tbl.replace lt k v;
              Hashtbl.replace h k v;
              written := true;
              true
            | Remove k ->
              Lazy_tbl.remove lt k;
              Hashtbl.remove h k;
              true
          in
          found
          && Lazy_tbl.allocated lt = !written
          && Lazy_tbl.length lt = Hashtbl.length h
          && sorted_fold Lazy_tbl.fold lt = sorted_fold Hashtbl.fold h
          && List.for_all
               (fun k -> Lazy_tbl.mem lt k = Hashtbl.mem h k)
               (List.init 10 Fun.id))
        ops)

(* Int_float_map against a Hashtbl model: replace, age pruning and
   lookups agree, and the bindings come out in ascending key order. Keys
   span negative and positive slots (timestamp-mode slot labels can be
   negative); values are whole numbers so ages land exactly on the
   horizon. *)
let prop_int_float_map_matches_model =
  QCheck.Test.make ~name:"int_float_map = Hashtbl model" ~count:300
    QCheck.(
      list_of_size (Gen.int_bound 80)
        (pair (int_range (-20) 20) (pair (map float_of_int (int_range 0 100)) bool)))
    (fun ops ->
      let m = Int_float_map.create () and h = Hashtbl.create 8 in
      List.for_all
        (fun (k, (v, prune)) ->
          if prune then begin
            let horizon = 30.0 in
            Int_float_map.remove_stale m ~now:v ~horizon;
            Hashtbl.filter_map_inplace (fun _ at -> if v -. at > horizon then None else Some at) h
          end
          else begin
            Int_float_map.replace m k v;
            Hashtbl.replace h k v
          end;
          let model = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare in
          Int_float_map.to_list m = model
          && Int_float_map.length m = Hashtbl.length h
          && Int_float_map.mem m k = Hashtbl.mem h k
          && Int_float_map.mem m (k + 1) = Hashtbl.mem h (k + 1))
        ops)

let tests =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng uniform mean" `Quick test_rng_uniform_mean;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng sample distinct" `Quick test_rng_sample_distinct;
    Alcotest.test_case "rng pareto above xm" `Quick test_rng_pareto_above_xm;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "heap peek stable" `Quick test_heap_peek_stable;
    QCheck_alcotest.to_alcotest prop_heap_ordering;
    Alcotest.test_case "ewma first sample" `Quick test_ewma_first_sample;
    Alcotest.test_case "ewma converges" `Quick test_ewma_converges;
    Alcotest.test_case "ewma samples counted" `Quick test_ewma_samples_counted;
    Alcotest.test_case "stats mean/std" `Quick test_stats_mean_std;
    Alcotest.test_case "stats percentiles" `Quick test_stats_percentiles;
    Alcotest.test_case "stats percentile interpolates" `Quick test_stats_percentile_interpolates;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
    Alcotest.test_case "vec arithmetic" `Quick test_vec_arithmetic;
    Alcotest.test_case "vec dist" `Quick test_vec_dist;
    Alcotest.test_case "vec centroid" `Quick test_vec_centroid;
    Alcotest.test_case "vec unit_or" `Quick test_vec_unit_or;
    QCheck_alcotest.to_alcotest prop_lazy_tbl_matches_hashtbl;
    QCheck_alcotest.to_alcotest prop_int_float_map_matches_model;
  ]
