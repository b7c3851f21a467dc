(* Tests for k-means and Vivaldi coordinates. *)

module Kmeans = Mortar_cluster.Kmeans
module Vivaldi = Mortar_coords.Vivaldi
module Rng = Mortar_util.Rng
module Vec = Mortar_util.Vec

(* Three well-separated 2-d blobs. *)
let blobs rng ~per_blob =
  let centers = [ (0.0, 0.0); (10.0, 0.0); (0.0, 10.0) ] in
  List.concat_map
    (fun (cx, cy) ->
      List.init per_blob (fun _ ->
          [| cx +. Rng.gaussian rng ~mu:0.0 ~sigma:0.5; cy +. Rng.gaussian rng ~mu:0.0 ~sigma:0.5 |]))
    centers
  |> Array.of_list

let test_kmeans_recovers_blobs () =
  let rng = Rng.create 21 in
  let points = blobs rng ~per_blob:40 in
  let r = Kmeans.cluster rng ~k:3 points in
  Alcotest.(check int) "three centroids" 3 (Array.length r.Kmeans.centroids);
  (* Every point is within 3 units of its centroid (blobs have sigma 0.5). *)
  Array.iteri
    (fun i p ->
      let c = r.Kmeans.centroids.(r.Kmeans.assignment.(i)) in
      Alcotest.(check bool) "tight assignment" true (Vec.dist p c < 3.0))
    points

let test_kmeans_assignment_is_nearest () =
  let rng = Rng.create 22 in
  let points = blobs rng ~per_blob:30 in
  let r = Kmeans.cluster rng ~k:3 points in
  Array.iteri
    (fun i p ->
      let assigned = Vec.dist_sq p r.Kmeans.centroids.(r.Kmeans.assignment.(i)) in
      Array.iter
        (fun c ->
          Alcotest.(check bool) "assigned is nearest" true (assigned <= Vec.dist_sq p c +. 1e-9))
        r.Kmeans.centroids)
    points

let test_kmeans_k_geq_n () =
  let rng = Rng.create 23 in
  let points = [| [| 0.0 |]; [| 1.0 |] |] in
  let r = Kmeans.cluster rng ~k:5 points in
  Alcotest.(check int) "one cluster per point" 2 (Array.length r.Kmeans.centroids);
  Alcotest.(check (array int)) "each point is its own centroid" [| 0; 1 |] r.Kmeans.assignment

let test_kmeans_members_partition () =
  let rng = Rng.create 24 in
  let points = blobs rng ~per_blob:20 in
  let r = Kmeans.cluster rng ~k:3 points in
  let total = Array.fold_left (fun acc m -> acc + List.length m) 0 (Kmeans.buckets r) in
  Alcotest.(check int) "members partition points" (Array.length points) total

let test_kmeans_medoid () =
  let points = [| [| 0.0 |]; [| 1.0 |]; [| 10.0 |] |] in
  (* Medoid of all three: centroid at ~3.7; the closest member is 1.0. *)
  Alcotest.(check int) "medoid" 1 (Kmeans.medoid_of points [ 0; 1; 2 ]);
  Alcotest.check_raises "empty members" (Invalid_argument "Kmeans.medoid_of: empty member list")
    (fun () -> ignore (Kmeans.medoid_of points []))

(* Differential oracle: the plain [Vec] k-means (one [Vec.add] array per
   point, [nearest] returning a tuple, [members] per cluster) that the
   allocation-free kernel replaced. Both must produce the same
   clustering to the bit. [reseeds] counts empty-cluster re-seeds so the
   tests can show that path is exercised. *)
module Oracle = struct
  let reseeds = ref 0

  let seed_plus_plus rng ~k points =
    let n = Array.length points in
    let chosen = Array.make k points.(0) in
    chosen.(0) <- points.(Rng.int rng n);
    let d2 = Array.map (fun p -> Vec.dist_sq p chosen.(0)) points in
    for c = 1 to k - 1 do
      let total = Array.fold_left ( +. ) 0.0 d2 in
      let next =
        if total <= 0.0 then Rng.int rng n
        else begin
          let target = Rng.float rng total in
          let acc = ref 0.0 and idx = ref (n - 1) in
          (try
             for i = 0 to n - 1 do
               acc := !acc +. d2.(i);
               if !acc >= target then begin
                 idx := i;
                 raise Exit
               end
             done
           with Exit -> ());
          !idx
        end
      in
      chosen.(c) <- points.(next);
      Array.iteri
        (fun i p ->
          let d = Vec.dist_sq p chosen.(c) in
          if d < d2.(i) then d2.(i) <- d)
        points
    done;
    chosen

  let nearest centroids p =
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun i c ->
        let d = Vec.dist_sq p c in
        if d < !best_d then begin
          best_d := d;
          best := i
        end)
      centroids;
    (!best, !best_d)

  let cluster rng ~k ?(max_iter = 50) points =
    let n = Array.length points in
    if n = 0 then ([||], [||])
    else if k >= n then (Array.copy points, Array.init n (fun i -> i))
    else begin
      let centroids = seed_plus_plus rng ~k points in
      let assignment = Array.make n (-1) in
      let dim = Vec.dim points.(0) in
      let changed = ref true in
      let iters = ref 0 in
      while !changed && !iters < max_iter do
        incr iters;
        changed := false;
        Array.iteri
          (fun i p ->
            let c, _ = nearest centroids p in
            if c <> assignment.(i) then begin
              assignment.(i) <- c;
              changed := true
            end)
          points;
        let sums = Array.init k (fun _ -> Vec.zero dim) in
        let counts = Array.make k 0 in
        Array.iteri
          (fun i p ->
            let c = assignment.(i) in
            sums.(c) <- Vec.add sums.(c) p;
            counts.(c) <- counts.(c) + 1)
          points;
        Array.iteri
          (fun c count ->
            if count > 0 then centroids.(c) <- Vec.scale (1.0 /. float_of_int count) sums.(c)
            else begin
              incr reseeds;
              let far = ref 0 and far_d = ref neg_infinity in
              Array.iteri
                (fun i p ->
                  let d = Vec.dist_sq p centroids.(assignment.(i)) in
                  if d > !far_d then begin
                    far_d := d;
                    far := i
                  end)
                points;
              centroids.(c) <- points.(!far);
              assignment.(!far) <- c;
              changed := true
            end)
          counts
      done;
      (centroids, assignment)
    end

  let members assignment c =
    List.filter (fun i -> assignment.(i) = c) (List.init (Array.length assignment) Fun.id)
end

let bits = Array.map (Array.map Int64.bits_of_float)

let same_as_oracle ~seed ~k points =
  let r = Kmeans.cluster (Rng.create seed) ~k points in
  let centroids, assignment = Oracle.cluster (Rng.create seed) ~k points in
  r.Kmeans.assignment = assignment
  && bits r.Kmeans.centroids = bits centroids
  && Array.for_all2 ( = ) (Kmeans.buckets r)
       (Array.init (Array.length centroids) (Oracle.members assignment))

(* Coordinates on a coarse grid repeat often, so k-means++ draws
   coincident seeds and Lloyd has to re-seed empty clusters. *)
let kmeans_input_gen =
  QCheck.Gen.(
    let* dim = int_range 2 3 in
    let* n = int_range 0 40 in
    let* k = int_range 1 12 in
    let* coarse = bool in
    let coord =
      if coarse then map float_of_int (int_range 0 2) else float_range (-50.0) 50.0
    in
    let* points = array_size (return n) (array_size (return dim) coord) in
    let* seed = int_bound 10_000 in
    return (seed, k, points))

let prop_kmeans_matches_oracle =
  QCheck.Test.make ~name:"kmeans kernel = Vec oracle (bits)" ~count:400
    (QCheck.make
       ~print:(fun (seed, k, points) ->
         Printf.sprintf "seed=%d k=%d n=%d" seed k (Array.length points))
       kmeans_input_gen)
    (fun (seed, k, points) -> same_as_oracle ~seed ~k points)

let test_kmeans_reseed_matches_oracle () =
  (* Six copies each of three points: seeds collide and clusters empty. *)
  let points =
    Array.init 18 (fun i -> [| float_of_int (i mod 3); float_of_int (i mod 3 * 2); 0.5 |])
  in
  Oracle.reseeds := 0;
  for seed = 0 to 99 do
    List.iter
      (fun k ->
        if not (same_as_oracle ~seed ~k points) then
          Alcotest.failf "seed %d k %d differs from the oracle" seed k)
      [ 2; 3; 4; 5; 17; 18; 30 ]
  done;
  Alcotest.(check bool) "empty-cluster re-seed exercised" true (!Oracle.reseeds > 0);
  Alcotest.(check bool) "n = 0" true (same_as_oracle ~seed:1 ~k:3 [||])

let test_vivaldi_converges () =
  let rng = Rng.create 28 in
  let topo = Mortar_net.Topology.transit_stub (Rng.create 2) ~transits:4 ~stubs:8 ~hosts:80 () in
  let s = Vivaldi.create topo ~rng () in
  let initial = Vivaldi.relative_error s in
  Vivaldi.converge s ~rounds:15 ~samples:8;
  let final = Vivaldi.relative_error s in
  Alcotest.(check bool)
    (Printf.sprintf "error drops (%.2f -> %.2f)" initial final)
    true
    (final < initial && final < 0.45)

let test_vivaldi_error_estimates_shrink () =
  let rng = Rng.create 29 in
  let topo = Mortar_net.Topology.transit_stub (Rng.create 2) ~transits:4 ~stubs:8 ~hosts:40 () in
  let s = Vivaldi.create topo ~rng () in
  Vivaldi.converge s ~rounds:15 ~samples:8;
  (* All nodes have moved off their initial unit error. *)
  Array.iteri
    (fun _ c -> Alcotest.(check bool) "coordinate moved" true (Vec.norm c > 0.0))
    (Vivaldi.coordinates s)

let test_vivaldi_predicts_neighbors () =
  let rng = Rng.create 30 in
  let topo = Mortar_net.Topology.transit_stub (Rng.create 2) ~transits:4 ~stubs:8 ~hosts:80 () in
  let s = Vivaldi.create topo ~rng () in
  Vivaldi.converge s ~rounds:20 ~samples:8;
  let coords = Vivaldi.coordinates s in
  (* Coordinate distances should correlate with latencies: averages over
     close pairs must be below averages over far pairs. *)
  let close = ref [] and far = ref [] in
  for a = 0 to 79 do
    for b = a + 1 to 79 do
      let l = Mortar_net.Topology.latency topo a b in
      let d = Vec.dist coords.(a) coords.(b) in
      if l < 0.01 then close := d :: !close else if l > 0.04 then far := d :: !far
    done
  done;
  let mean l = Mortar_util.Stats.mean (Array.of_list l) in
  Alcotest.(check bool) "close pairs closer in coordinate space" true
    (mean !close < mean !far)

(* The vector form of Vivaldi that the flat in-place one replaced: one
   record per node and fresh vectors per sample. *)
module Vivaldi_vectors = struct
  type node = { mutable coord : Vec.t; mutable error : float }

  let observe n ~rng ~remote ~remote_error ~rtt =
    let w =
      let denom = n.error +. remote_error in
      if denom <= 0.0 then 0.5 else n.error /. denom
    in
    let predicted = Vec.dist n.coord remote in
    let sample_error = if rtt > 0.0 then abs_float (predicted -. rtt) /. rtt else 0.0 in
    n.error <- (sample_error *. 0.25 *. w) +. (n.error *. (1.0 -. (0.25 *. w)));
    if n.error > 1.0 then n.error <- 1.0;
    let delta = 0.25 *. w in
    let direction =
      let d = Vec.sub n.coord remote in
      let random_unit =
        let v = Array.init (Vec.dim n.coord) (fun _ -> Rng.gaussian rng ~mu:0.0 ~sigma:1.0) in
        Vec.unit_or v ~fallback:(Array.init (Vec.dim n.coord) (fun i -> if i = 0 then 1.0 else 0.0))
      in
      Vec.unit_or d ~fallback:random_unit
    in
    let force = delta *. (rtt -. predicted) in
    n.coord <- Vec.add n.coord (Vec.scale force direction)

  let converge topo ~rng ~rounds ~samples =
    let n = Mortar_net.Topology.hosts topo in
    let nodes =
      Array.init n (fun _ ->
          { coord = Array.init 3 (fun _ -> Rng.uniform rng (-0.001) 0.001); error = 1.0 })
    in
    for _ = 1 to rounds do
      Array.iteri
        (fun i node ->
          for _ = 1 to samples do
            let j = Rng.int rng n in
            if j <> i then
              observe node ~rng ~remote:nodes.(j).coord ~remote_error:nodes.(j).error
                ~rtt:(Mortar_net.Topology.latency topo i j)
          done)
        nodes
    done;
    Array.map (fun nd -> nd.coord) nodes
end

let test_vivaldi_bit_identical () =
  let topo = Mortar_net.Topology.transit_stub (Rng.create 5) ~transits:8 ~stubs:34 ~hosts:2000 () in
  let expected = Vivaldi_vectors.converge topo ~rng:(Rng.create 31) ~rounds:12 ~samples:8 in
  let s = Vivaldi.create topo ~rng:(Rng.create 31) () in
  Vivaldi.converge s ~rounds:12 ~samples:8;
  let bits c = Array.map Int64.bits_of_float c in
  Array.iteri
    (fun h c ->
      if bits c <> bits expected.(h) then
        Alcotest.failf "host %d: coordinate differs from the vector form" h)
    (Vivaldi.coordinates s)

let tests =
  [
    Alcotest.test_case "kmeans recovers blobs" `Quick test_kmeans_recovers_blobs;
    Alcotest.test_case "kmeans nearest assignment" `Quick test_kmeans_assignment_is_nearest;
    Alcotest.test_case "kmeans k >= n" `Quick test_kmeans_k_geq_n;
    Alcotest.test_case "kmeans members partition" `Quick test_kmeans_members_partition;
    Alcotest.test_case "kmeans medoid" `Quick test_kmeans_medoid;
    Alcotest.test_case "vivaldi converges" `Quick test_vivaldi_converges;
    Alcotest.test_case "vivaldi coordinates move" `Quick test_vivaldi_error_estimates_shrink;
    Alcotest.test_case "vivaldi predicts neighbors" `Quick test_vivaldi_predicts_neighbors;
    Alcotest.test_case "vivaldi in place = vector form" `Quick test_vivaldi_bit_identical;
    QCheck_alcotest.to_alcotest prop_kmeans_matches_oracle;
    Alcotest.test_case "kmeans re-seed = Vec oracle" `Quick test_kmeans_reseed_matches_oracle;
  ]
