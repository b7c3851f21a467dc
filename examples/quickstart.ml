(* Quickstart: deploy a Mortar federation of 64 simulated peers, install a
   node-counting query written in the Mortar Stream Language, and watch
   results stream out of the root.

     dune exec examples/quickstart.exe

   What happens:
   1. a transit-stub topology is generated and every host gets a peer;
   2. Vivaldi coordinates converge, and the planner builds a primary tree
      plus three siblings over them;
   3. the MSL program compiles to a sum query over every peer's "ones"
      stream with a 1-second tumbling window;
   4. the install multicast deploys operators everywhere; summaries stripe
      across the tree set and merge on their way to the root. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer

let program = {| peers = sum(stream("ones")) window time 1s 1s |}

let () =
  let hosts = 64 in
  let rng = Mortar_util.Rng.create 2024 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:8 ~hosts () in
  let d = D.create_sharded ~seed:2024 topo in
  print_endline "converging network coordinates...";
  D.converge_coordinates d ();

  (* Compile the query and plan its tree set. *)
  let statements = Mortar_core.Msl.parse program in
  let metas = Mortar_core.Msl.query_metas statements ~root:0 ~total_nodes:hosts () in
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:8 ~d:4 ~root:0 ~nodes () in

  (* Every peer's sensor emits the integer 1 once a second. *)
  for node = 0 to hosts - 1 do
    D.sensor d ~node ~stream:"ones" ~period:1.0 (fun _ -> Mortar_core.Value.Int 1)
  done;

  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      Printf.printf "[t=%6.2fs] window %d: %s peers reporting (completeness %.0f%%)\n"
        (D.now d) r.slot
        (Mortar_core.Value.show r.value)
        (100.0 *. r.completeness));

  List.iter
    (fun (meta, _) -> D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset))
    metas;

  print_endline "running 30 simulated seconds...";
  D.run_until d 30.0;

  (* Disconnect a fifth of the peers and keep going: the query routes
     around them and the count tracks the live population. *)
  print_endline "disconnecting 20% of the peers...";
  ignore (D.fail_random d ~fraction:0.2);
  D.run_until d 60.0;
  Printf.printf "done; %d peers still connected\n" (List.length (D.up_hosts d))
