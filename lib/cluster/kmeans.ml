module Vec = Mortar_util.Vec
module Rng = Mortar_util.Rng

type result = {
  centroids : Vec.t array;
  assignment : int array;
}

(* k-means++ : choose the first centroid uniformly, then each next centroid
   with probability proportional to squared distance from the nearest chosen
   centroid. *)
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

let max_iter = 50

(* Lloyd iterations. The kernel allocates nothing per point: the nearest
   centroid search is inlined and the per-cluster sums accumulate in
   place. Its float operations run in the order of the plain [Vec] code
   ([dist_sq] summed left to right, sums added point by point from
   zero, centroids scaled by [1 / count]), so clusterings are
   bit-identical to it. Centroids may alias input points (k-means++
   seeds and empty-cluster re-seeds store them), so a centroid is only
   ever replaced, never written in place. *)
let cluster rng ~k points =
  assert (k >= 1);
  let n = Array.length points in
  if n = 0 then { centroids = [||]; assignment = [||] }
  else if k >= n then { centroids = Array.copy points; assignment = Array.init n (fun i -> i) }
  else begin
    let centroids = seed_plus_plus rng ~k points in
    let assignment = Array.make n (-1) in
    let dim = Vec.dim points.(0) in
    let sums = Array.make_matrix k dim 0.0 in
    let counts = Array.make k 0 in
    let changed = ref true in
    let iters = ref 0 in
    while !changed && !iters < max_iter do
      incr iters;
      changed := false;
      (* Assignment step. *)
      for i = 0 to n - 1 do
        let p = points.(i) in
        let best = ref 0 and best_d = ref infinity in
        for c = 0 to k - 1 do
          let q = centroids.(c) in
          let d = ref 0.0 in
          for j = 0 to Array.length p - 1 do
            let x = p.(j) -. q.(j) in
            d := !d +. (x *. x)
          done;
          if !d < !best_d then begin
            best_d := !d;
            best := c
          end
        done;
        if !best <> assignment.(i) then begin
          assignment.(i) <- !best;
          changed := true
        end
      done;
      (* Update step. *)
      Array.iter (fun s -> Array.fill s 0 dim 0.0) sums;
      Array.fill counts 0 k 0;
      for i = 0 to n - 1 do
        let p = points.(i) and c = assignment.(i) in
        let s = sums.(c) in
        for j = 0 to dim - 1 do
          s.(j) <- s.(j) +. p.(j)
        done;
        counts.(c) <- counts.(c) + 1
      done;
      for c = 0 to k - 1 do
        let count = counts.(c) in
        if count > 0 then centroids.(c) <- Vec.scale (1.0 /. float_of_int count) sums.(c)
        else begin
          (* Re-seed an empty cluster on the point farthest from its
             centroid, the standard fix-up. *)
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
        end
      done
    done;
    { centroids; assignment }
  end

let buckets result =
  let b = Array.make (Array.length result.centroids) [] in
  for i = Array.length result.assignment - 1 downto 0 do
    let c = result.assignment.(i) in
    b.(c) <- i :: b.(c)
  done;
  b

let medoid_of points idxs =
  match idxs with
  | [] -> invalid_arg "Kmeans.medoid_of: empty member list"
  | _ ->
    let center = Vec.centroid (List.map (fun i -> points.(i)) idxs) in
    let best = ref (List.hd idxs) and best_d = ref infinity in
    List.iter
      (fun i ->
        let d = Vec.dist_sq points.(i) center in
        if d < !best_d then begin
          best_d := d;
          best := i
        end)
      idxs;
    !best
