module Vec = Mortar_util.Vec
module Rng = Mortar_util.Rng

let c_c = 0.25 (* timestep constant *)
let c_e = 0.25 (* error-estimate smoothing constant *)
let dim = 3 (* Bamboo's coordinate space *)

type node = {
  mutable coord : Vec.t;
  mutable error : float;
}

let node_create rng =
  (* Small random start breaks the symmetry of an all-zeros system. *)
  { coord = Array.init dim (fun _ -> Rng.uniform rng (-0.001) 0.001); error = 1.0 }

(* Fold in one latency sample to a remote node: the standard Vivaldi
   update with adaptive timestep [delta = c_c * w] where
   [w = e_local / (e_local + e_remote)]. [rtt] is the measured one-way
   latency in seconds (the name follows the original paper). *)
let observe n ~rng ~remote ~remote_error ~rtt =
  let w =
    let denom = n.error +. remote_error in
    if denom <= 0.0 then 0.5 else n.error /. denom
  in
  let predicted = Vec.dist n.coord remote in
  let sample_error =
    if rtt > 0.0 then abs_float (predicted -. rtt) /. rtt else 0.0
  in
  n.error <- (sample_error *. c_e *. w) +. (n.error *. (1.0 -. (c_e *. w)));
  if n.error > 1.0 then n.error <- 1.0;
  let delta = c_c *. w in
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

type system = {
  topo : Mortar_net.Topology.t;
  nodes : node array;
  rng : Rng.t;
}

let create topo ~rng () =
  let n = Mortar_net.Topology.hosts topo in
  { topo; nodes = Array.init n (fun _ -> node_create rng); rng }

(* One gossip round: each node measures latency to [samples] random peers
   and updates its coordinate. *)
let round s ~samples =
  let n = Array.length s.nodes in
  Array.iteri
    (fun i node ->
      for _ = 1 to samples do
        let j = Rng.int s.rng n in
        if j <> i then begin
          let peer = s.nodes.(j) in
          observe node ~rng:s.rng ~remote:peer.coord ~remote_error:peer.error
            ~rtt:(Mortar_net.Topology.latency s.topo i j)
        end
      done)
    s.nodes

let converge s ~rounds ~samples =
  for _ = 1 to rounds do
    round s ~samples
  done

let coordinates s = Array.map (fun n -> n.coord) s.nodes

let relative_error s =
  let n = Array.length s.nodes in
  let pairs = min 2000 (n * (n - 1) / 2) in
  let errs =
    Array.init pairs (fun _ ->
        let i = Rng.int s.rng n in
        let j = Rng.int s.rng n in
        if i = j then 0.0
        else begin
          let true_lat = Mortar_net.Topology.latency s.topo i j in
          let pred = Vec.dist s.nodes.(i).coord s.nodes.(j).coord in
          if true_lat > 0.0 then abs_float (pred -. true_lat) /. true_lat else 0.0
        end)
  in
  Mortar_util.Stats.median errs
