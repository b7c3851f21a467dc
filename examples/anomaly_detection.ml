(* Traffic-anomaly detection across an enterprise — one of the paper's
   motivating workloads (§1: "an entropy function to detect anomalous
   traffic features", §2.2).

     dune exec examples/anomaly_detection.exe

   Every end host reports the destination port of each observed flow; an
   in-network entropy query summarizes the port distribution over 5-second
   windows. Background traffic spreads over many ports (high entropy).
   Halfway through, a simulated worm makes a third of the hosts hammer one
   port — the entropy collapses, which a local alarm threshold catches at
   the root. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Value = Mortar_core.Value

let () =
  let hosts = 96 in
  let rng = Mortar_util.Rng.create 11 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:12 ~hosts () in
  let d = D.create_sharded ~seed:11 topo in
  D.converge_coordinates d ();

  let program = {| port_entropy = entropy(stream("flows")) window time 5s 5s |} in
  let metas =
    Mortar_core.Msl.query_metas (Mortar_core.Msl.parse program) ~root:0 ~total_nodes:hosts ()
  in
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:8 ~d:4 ~root:0 ~nodes () in
  List.iter
    (fun (meta, _) -> D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset))
    metas;

  (* Flow sensors: normal hosts pick a port from a broad distribution; an
     infected host hits port 4444 almost exclusively after t = 60 s. *)
  let worm_start = 60.0 in
  let traffic_rng = Mortar_util.Rng.create 23 in
  let infected node = node mod 3 = 0 in
  for node = 0 to hosts - 1 do
    D.sensor d ~node ~stream:"flows" ~period:0.5 ~jitter:0.1 (fun _ ->
        let port =
          if infected node && D.now d > worm_start && Mortar_util.Rng.float traffic_rng 1.0 < 0.95
          then 4444
          else 1000 + Mortar_util.Rng.int traffic_rng 64
        in
        Value.Str (string_of_int port))
  done;

  let alarm_threshold = 5.4 in
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      let h = Value.to_float r.value in
      Printf.printf "[t=%6.1fs] port entropy %.2f bits over %d reporting hosts%s\n"
        (D.now d) h r.count
        (if h < alarm_threshold then "  << ANOMALY: traffic concentrating!" else ""));

  Printf.printf "normal traffic for %.0fs, then a worm infects a third of the hosts...\n"
    worm_start;
  D.run_until d 120.0;
  print_endline "done"
