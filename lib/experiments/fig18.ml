(* Figure 18 (§7.4): the Wi-Fi location service. 188 sniffers replay
   frames while a user walks the building's four floors in an L shape; the
   three-line MSL query (select on MAC, topk k=3 on RSSI, custom trilat)
   recovers the path. The paper also reports a 14% reduction in total
   network load versus a query whose topk cannot aggregate in-network
   (bf = 188, still with the distributed select). *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Value = Mortar_core.Value
module Msl = Mortar_core.Msl

let program =
  {|
loud  = select(stream("frames"), mac == "target" && rssi > -90.0)
top3  = topk(loud, k=3, key="rssi") window time 1s 1s
where = trilat(top3) window time 1s 1s on [0]
|}

(* The comparison query of §7.4: the distributed select still runs at each
   sniffer, but nothing reduces the frames in-network (bf = 188) — every
   selected frame reaches the root, where topk/trilat happen locally. *)
let program_flat =
  {|
loud  = select(stream("frames"), mac == "target" && rssi > -90.0)
all   = union(loud, cap=0) window time 1s 1s
where = trilat(all) window time 1s 1s on [0]
|}

let duration = 240.0

let frame_rate = 25.0

type outcome = {
  estimates : (float * float * float) list; (* (sim time, x, y) *)
  mean_error : float;
  data_bytes : float;
}

let one_run ~flat ~quick =
  Mortar_wifi.Wifi.register_trilat ();
  let sniffers = Mortar_wifi.Wifi.building_sniffers () in
  let hosts = Array.length sniffers + 1 in
  (* Host 0 is the query root (a monitoring server); sniffer i lives on
     host i+1. Star topology with 1 ms links, as in §7.4. *)
  let topo = Mortar_net.Topology.star ~link_delay:0.001 ~hosts in
  let d = D.create_sharded ~seed:99 topo in
  D.converge_coordinates d ();
  let statements = Msl.parse (if flat then program_flat else program) in
  let metas = Msl.query_metas statements ~root:0 ~total_nodes:hosts () in
  let rng = D.rng d in
  List.iter
    (fun ((meta : Mortar_core.Query.meta), nodes) ->
      let node_array =
        match nodes with
        | Msl.All -> Array.init (hosts - 1) (fun i -> i + 1)
        | Msl.Nodes l -> Array.of_list (List.filter (fun n -> n <> 0) l)
      in
      let treeset =
        if flat || Array.length node_array = 0 then
          Mortar_overlay.Treeset.random rng ~bf:(max 1 (Array.length node_array))
            ~d:1 ~root:0 ~nodes:node_array
        else D.plan d ~bf:16 ~root:0 ~nodes:node_array ()
      in
      D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset))
    metas;
  (* Frame replay: the user walks the L while downloading. *)
  let walk_start = 10.0 in
  let frame_rng = Mortar_util.Rng.create 313 in
  let rec frame_tick k =
    let t = walk_start +. (float_of_int k /. frame_rate) in
    if t < walk_start +. duration then
      D.at d t (fun () ->
          let x, y, floor = Mortar_wifi.Wifi.l_path ~t:(t -. walk_start) ~duration in
          Array.iteri
            (fun i sniffer ->
              match
                Mortar_wifi.Wifi.frame frame_rng ~sniffer ~mac:"target" ~x ~y ~floor
              with
              | Some frame -> D.inject d ~node:(i + 1) ~stream:"frames" frame
              | None -> ())
            sniffers;
          (* Background chatter from another station, filtered out by the
             select at each sniffer. *)
          if k mod 3 = 0 then begin
            let bx, by, bfloor = (10.0, 10.0, 1) in
            Array.iteri
              (fun i sniffer ->
                match
                  Mortar_wifi.Wifi.frame frame_rng ~sniffer ~mac:"other" ~x:bx ~y:by
                    ~floor:bfloor
                with
                | Some frame -> D.inject d ~node:(i + 1) ~stream:"frames" frame
                | None -> ())
              sniffers
          end;
          frame_tick (k + 1))
  in
  frame_tick 0;
  let estimates = ref [] in
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      if r.query = "where" then begin
        match r.value with
        | Value.Record _ -> (
          match (Value.field_opt r.value "x", Value.field_opt r.value "y") with
          | Some x, Some y ->
            estimates := (D.now d, Value.to_float x, Value.to_float y) :: !estimates
          | _ -> ())
        | _ -> ()
      end);
  let horizon = walk_start +. duration +. (if quick then 5.0 else 10.0) in
  D.run_until d horizon;
  let estimates = List.rev !estimates in
  let errors =
    List.filter_map
      (fun (t, ex, ey) ->
        (* Compare against the true position when the frames were heard,
           approximated by the estimate's emission time minus the pipeline
           latency (the two windowed stages). *)
        let sample_t = t -. walk_start -. 2.0 in
        if sample_t < 0.0 || sample_t > duration then None
        else begin
          let tx, ty, _ = Mortar_wifi.Wifi.l_path ~t:sample_t ~duration in
          Some (sqrt (((ex -. tx) ** 2.0) +. ((ey -. ty) ** 2.0)))
        end)
      estimates
  in
  {
    estimates;
    mean_error = Mortar_util.Stats.mean (Array.of_list errors);
    data_bytes = D.total_bytes d;
  }

let run ~quick =
  let aggregated = one_run ~flat:false ~quick in
  let flat = one_run ~flat:true ~quick in
  Printf.printf "track (every 20th estimate): time, est(x,y), true(x,y)\n";
  Common.table ~columns:[ "t"; "est-x"; "est-y"; "true-x"; "true-y" ] (fun () ->
      List.filteri (fun i _ -> i mod 20 = 0) aggregated.estimates
      |> List.map (fun (t, ex, ey) ->
             let tx, ty, _ =
               Mortar_wifi.Wifi.l_path ~t:(max 0.0 (t -. 10.0 -. 2.0)) ~duration
             in
             [
               Printf.sprintf "%.0f" t;
               Common.cell_f ex;
               Common.cell_f ey;
               Common.cell_f tx;
               Common.cell_f ty;
             ]));
  Printf.printf "\nmean position error: %.1f m over %d estimates\n" aggregated.mean_error
    (List.length aggregated.estimates);
  Printf.printf "network load: aggregated %.2f MB vs flat (bf=188) %.2f MB — %.1f%% saving\n"
    (aggregated.data_bytes /. 1e6) (flat.data_bytes /. 1e6)
    (100.0 *. (1.0 -. (aggregated.data_bytes /. flat.data_bytes)))

let experiment =
  {
    Common.id = "fig18";
    title = "Wi-Fi tracking: select -> topk(3) -> trilat over 188 sniffers";
    paper_claim =
      "the three-line query recovers the user's L-shaped walk (floors \
       indistinguishable, plotted on one plane); in-network topk saves ~14% network \
       load vs bf=188";
    run;
  }
