(* Figure 16 (§7.2.3): the SDIMS/FreePastry comparison. Same topology and
   rolling-failure schedule as Fig 14, but nodes stay down 120 s; SDIMS
   publishes every 5 s and is probed every 5 s.

   Paper: early accuracy gives way to highly variable results; failures
   cause over-counting (completeness beyond 100%, approaching 180% late in
   the run) that persists after all nodes reconnect; bandwidth spikes with
   every disconnection wave; steady state 67 Mbps (9 Pastry overhead) —
   5.3x Mortar at one fifth of Mortar's result frequency. *)

module Engine = Mortar_sim.Engine
module Transport = Mortar_net.Transport
module Sdims = Mortar_sdims.Sdims

let attribute = "peer-count"

type world = {
  engine : Engine.t;
  transport : Sdims.msg Transport.t;
  nodes : Sdims.t array;
  probe_log : (float * float) Queue.t; (* (sim time, reported count) *)
}

let build ~hosts ~seed =
  let rng = Mortar_util.Rng.create seed in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:8 ~stubs:34 ~hosts () in
  let engine = Engine.create () in
  let transport = Transport.create engine topo ~rng:(Mortar_util.Rng.split rng) () in
  let rt : Sdims.runtime =
    {
      Sdims.send = Transport.send transport;
      local_time = (fun _ -> Engine.now engine);
      set_timer = (fun h ~after f -> Engine.post engine ~at:(Engine.now engine +. after) f h);
    }
  in
  let nodes = Array.init hosts (fun i -> Sdims.create rt ~self:i ~rng:(Mortar_util.Rng.split rng)) in
  Array.iteri
    (fun i node -> Transport.register transport i (fun ~src m -> Sdims.receive node ~src m))
    nodes;
  let members = List.init hosts Fun.id in
  Array.iter (fun node -> Sdims.bootstrap node ~members) nodes;
  Array.iter (fun node -> Sdims.set_local node ~query:attribute 1.0) nodes;
  let probe_log = Queue.create () in
  (* The external prober: host 1 probes every 5 s (the paper probes five
     times less often than Mortar reports). *)
  Sdims.on_probe_reply nodes.(1) (fun ~query:_ ~value ~count:_ ->
      Queue.add (Engine.now engine, value) probe_log);
  let rec probe_loop _ =
    Sdims.probe nodes.(1) ~query:attribute;
    ignore (Engine.post engine ~at:(Engine.now engine +. 5.0) probe_loop 1)
  in
  ignore (Engine.post engine ~at:10.0 probe_loop 1);
  { engine; transport; nodes; probe_log }

let run ~quick =
  let hosts = if quick then 240 else 680 in
  let w = build ~hosts ~seed:2221 in
  let horizon = if quick then 500.0 else 1100.0 in (* paper runs 1200 s *)
  let down_time = 120.0 in
  let rng = Mortar_util.Rng.create 31337 in
  let schedule_failure start fraction =
    ignore
      (Engine.post w.engine ~at:start (fun _ ->
           let candidates = Array.init (hosts - 2) (fun i -> i + 2) in
           let k = int_of_float (fraction *. float_of_int hosts) in
           let victims = Mortar_util.Rng.sample rng candidates (min k (hosts - 2)) in
           Array.iter (fun v -> Transport.set_up w.transport v false) victims;
           let heal _ = Array.iter (fun v -> Transport.set_up w.transport v true) victims in
           ignore (Engine.post w.engine ~at:(start +. down_time) heal 0))
         0)
  in
  List.iteri
    (fun i fraction ->
      let start = 120.0 +. (float_of_int i *. 240.0) in
      if start +. down_time < horizon then schedule_failure start fraction)
    [ 0.1; 0.2; 0.3; 0.4 ];
  Engine.run ~until:horizon w.engine;
  (* Completeness series from the probe log, and bandwidth per bucket. *)
  let probes = List.of_seq (Queue.to_seq w.probe_log) in
  let bucket = 20.0 in
  let live = List.length (List.filter (Transport.is_up w.transport) (List.init hosts Fun.id)) in
  (* Mean answered count over the hosts; "-" where no probe was answered,
     as the live column prints before the last bucket. *)
  let completeness_cell = function
    | [] -> "-"
    | answered ->
      Common.cell_pct (Mortar_util.Stats.mean (Array.of_list answered) /. float_of_int hosts)
  in
  Common.table ~columns:[ "t"; "completeness"; "live"; "load(Mbps)" ] (fun () ->
      List.filter_map
        (fun k ->
          let t0 = float_of_int k *. bucket and t1 = (float_of_int k +. 1.0) *. bucket in
          if t0 < 20.0 then None
          else begin
            let window_probes =
              List.filter (fun (t, _) -> t >= t0 && t < t1) probes |> List.map snd
            in
            let bytes =
              List.fold_left
                (fun acc kind ->
                  match Transport.bytes_series w.transport ~kind with
                  | Some s -> acc +. Mortar_sim.Series.sum_between s t0 t1
                  | None -> acc)
                0.0
                (Transport.kinds w.transport)
            in
            Some
              [
                Printf.sprintf "%.0f" t0;
                completeness_cell window_probes;
                (if t1 >= horizon then string_of_int live else "-");
                Common.cell_f (bytes *. 8.0 /. bucket /. 1e6);
              ]
          end)
        (List.init (int_of_float (horizon /. bucket)) Fun.id));
  (* Headline numbers. *)
  let steady_bytes =
    List.fold_left
      (fun acc kind ->
        match Transport.bytes_series w.transport ~kind with
        | Some s -> acc +. Mortar_sim.Series.sum_between s 40.0 110.0
        | None -> acc)
      0.0
      (Transport.kinds w.transport)
  in
  let late = List.filter (fun (t, _) -> t > horizon -. 100.0) probes |> List.map snd in
  Printf.printf "\nsteady-state load before failures: %.2f Mbps; completeness at end of run: %s\n"
    (steady_bytes *. 8.0 /. 70.0 /. 1e6)
    (completeness_cell late)

let experiment =
  {
    Common.id = "fig16";
    title = "SDIMS over Pastry under the rolling-failure schedule";
    paper_claim =
      "over-counting beyond 100% (to ~180%) during and after failures; bandwidth \
       spikes on disconnection waves; 5.3x Mortar's load at 1/5 the result rate";
    run;
  }
