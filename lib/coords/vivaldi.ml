module Vec = Mortar_util.Vec
module Rng = Mortar_util.Rng

let c_c = 0.25 (* timestep constant *)
let c_e = 0.25 (* error-estimate smoothing constant *)
let dim = 3 (* Bamboo's coordinate space *)

(* Node [i]'s coordinate is [coords.(i * dim) .. coords.(i * dim + dim - 1)]
   and its error estimate [err.(i)]: flat float arrays, so a sample
   updates them in place and allocates nothing. *)
type system = {
  topo : Mortar_net.Topology.t;
  coords : float array;
  err : float array;
  rng : Rng.t;
  (* Scratch for one sample: the direction away from the remote node and
     the random unit vector drawn beside it. *)
  d : float array;
  v : float array;
}

let create topo ~rng () =
  let n = Mortar_net.Topology.hosts topo in
  (* Small random start breaks the symmetry of an all-zeros system. *)
  let coords = Array.make (n * dim) 0.0 in
  for i = 0 to (n * dim) - 1 do
    coords.(i) <- Rng.uniform rng (-0.001) 0.001
  done;
  { topo; coords; err = Array.make n 1.0; rng; d = Array.make dim 0.0; v = Array.make dim 0.0 }

(* Fold one latency sample of node [i] to node [j] into [i]: the standard
   Vivaldi update with adaptive timestep [delta = c_c * w] where
   [w = e_local / (e_local + e_remote)]. [rtt] is the measured one-way
   latency in seconds (the name follows the original paper). The float
   operations and the random draws are those of the vector form: three
   gaussians are drawn on every sample, whether or not the coordinates
   coincide. *)
let observe s i j ~rtt =
  let c = s.coords and d = s.d and v = s.v in
  let error = s.err.(i) in
  let w =
    let denom = error +. s.err.(j) in
    if denom <= 0.0 then 0.5 else error /. denom
  in
  let ci = i * dim and cj = j * dim in
  let dd = ref 0.0 in
  for k = 0 to dim - 1 do
    let x = c.(ci + k) -. c.(cj + k) in
    d.(k) <- x;
    dd := !dd +. (x *. x)
  done;
  let predicted = sqrt !dd in
  let sample_error = if rtt > 0.0 then abs_float (predicted -. rtt) /. rtt else 0.0 in
  let error = (sample_error *. c_e *. w) +. (error *. (1.0 -. (c_e *. w))) in
  s.err.(i) <- (if error > 1.0 then 1.0 else error);
  let delta = c_c *. w in
  let vv = ref 0.0 in
  for k = 0 to dim - 1 do
    let g = Rng.gaussian s.rng ~mu:0.0 ~sigma:1.0 in
    v.(k) <- g
  done;
  for k = 0 to dim - 1 do
    vv := !vv +. (v.(k) *. v.(k))
  done;
  (* The direction: [d] normalised, else the random unit vector, else
     the first axis. *)
  let nd = sqrt !dd in
  if nd < 1e-9 then begin
    let nv = sqrt !vv in
    if nv < 1e-9 then
      for k = 0 to dim - 1 do
        d.(k) <- (if k = 0 then 1.0 else 0.0)
      done
    else
      let inv = 1.0 /. nv in
      for k = 0 to dim - 1 do
        d.(k) <- inv *. v.(k)
      done
  end
  else begin
    let inv = 1.0 /. nd in
    for k = 0 to dim - 1 do
      d.(k) <- inv *. d.(k)
    done
  end;
  let force = delta *. (rtt -. predicted) in
  for k = 0 to dim - 1 do
    c.(ci + k) <- c.(ci + k) +. (force *. d.(k))
  done

(* One gossip round: each node measures latency to [samples] random peers
   and updates its coordinate. *)
let round s ~samples =
  let n = Array.length s.err in
  for i = 0 to n - 1 do
    for _ = 1 to samples do
      let j = Rng.int s.rng n in
      if j <> i then observe s i j ~rtt:(Mortar_net.Topology.latency s.topo i j)
    done
  done

let converge s ~rounds ~samples =
  for _ = 1 to rounds do
    round s ~samples
  done

let coordinates s = Array.init (Array.length s.err) (fun i -> Array.sub s.coords (i * dim) dim)

let relative_error s =
  let n = Array.length s.err in
  let coords = coordinates s in
  let pairs = min 2000 (n * (n - 1) / 2) in
  let errs =
    Array.init pairs (fun _ ->
        let i = Rng.int s.rng n in
        let j = Rng.int s.rng n in
        if i = j then 0.0
        else begin
          let true_lat = Mortar_net.Topology.latency s.topo i j in
          let pred = Vec.dist coords.(i) coords.(j) in
          if true_lat > 0.0 then abs_float (pred -. true_lat) /. true_lat else 0.0
        end)
  in
  Mortar_util.Stats.median errs
