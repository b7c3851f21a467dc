(* The Wi-Fi device-tracking service of the paper's §7.4, as a runnable
   example:

     dune exec examples/wifi_tracking.exe

   188 simulated sniffers across a 4-floor L-shaped building replay frames
   while a user walks the halls. Three lines of the Mortar Stream Language
   locate the user once a second:

     loud  = select(stream("frames"), mac == "target" && rssi > -90.0)
     top3  = topk(loud, k=3, key="rssi")
     where = trilat(top3) on [0]

   The select runs at every sniffer, the topk aggregates in-network, and
   the custom trilat operator (registered by the wifi library) turns the
   three loudest observations into a position. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Wifi = Mortar_wifi.Wifi

let program =
  {|
loud  = select(stream("frames"), mac == "target" && rssi > -90.0)
top3  = topk(loud, k=3, key="rssi") window time 1s 1s
where = trilat(top3) window time 1s 1s on [0]
|}

let duration = 120.0

let () =
  Wifi.register_trilat ();
  let sniffers = Wifi.building_sniffers () in
  let hosts = Array.length sniffers + 1 in
  Printf.printf "building: %d sniffers on 4 floors; user walks an L for %.0fs\n"
    (Array.length sniffers) duration;

  let topo = Mortar_net.Topology.star ~link_delay:0.001 ~hosts in
  let d = D.create_sharded ~seed:7 topo in
  D.converge_coordinates d ();

  let statements = Mortar_core.Msl.parse program in
  let metas = Mortar_core.Msl.query_metas statements ~root:0 ~total_nodes:hosts () in
  List.iter
    (fun ((meta : Mortar_core.Query.meta), nodes) ->
      let node_array =
        match nodes with
        | Mortar_core.Msl.All -> Array.init (hosts - 1) (fun i -> i + 1)
        | Mortar_core.Msl.Nodes l -> Array.of_list (List.filter (fun n -> n <> 0) l)
      in
      let treeset =
        if Array.length node_array = 0 then
          Mortar_overlay.Treeset.random (D.rng d) ~bf:2 ~d:1 ~root:0 ~nodes:node_array
        else D.plan d ~bf:16 ~d:4 ~root:0 ~nodes:node_array ()
      in
      D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset))
    metas;

  (* Frame replay: 25 frames/s from the walking user; each sniffer in
     radio range captures them with a modeled RSSI. *)
  let frame_rng = Mortar_util.Rng.create 99 in
  let walk_start = 5.0 in
  let rec tick k =
    let t = walk_start +. (float_of_int k /. 25.0) in
    if t < walk_start +. duration then
      D.at d t (fun () ->
          let x, y, floor = Wifi.l_path ~t:(t -. walk_start) ~duration in
          Array.iteri
            (fun i sniffer ->
              match Wifi.frame frame_rng ~sniffer ~mac:"target" ~x ~y ~floor with
              | Some frame -> D.inject d ~node:(i + 1) ~stream:"frames" frame
              | None -> ())
            sniffers;
          tick (k + 1))
  in
  tick 0;

  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      if r.query = "where" && r.slot mod 5 = 0 then begin
        match r.value with
        | Mortar_core.Value.Record _ ->
          let get f = Mortar_core.Value.to_float (Mortar_core.Value.field r.value f) in
          let tx, ty, floor = Wifi.l_path ~t:(max 0.0 (D.now d -. walk_start -. 2.0)) ~duration in
          Printf.printf
            "[t=%6.1fs] estimate (%5.1f, %5.1f) | truth (%5.1f, %5.1f) on floor %d\n"
            (D.now d) (get "x") (get "y") tx ty floor
        | _ -> ()
      end);

  D.run_until d (walk_start +. duration +. 5.0);
  print_endline "walk complete"
