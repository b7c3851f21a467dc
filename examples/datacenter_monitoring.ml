(* Monitoring "multiple data centers filled with cheap PCs" (§1): several
   concurrent queries over one federation, composed queries subscribing to
   another query's output, and machines failing mid-run.

     dune exec examples/datacenter_monitoring.exe

   Three queries run at once:
   - [load_avg]: mean CPU load over all machines, 5 s windows;
   - [hot_count]: how many machines are above 80% load (a select feeding
     a count);
   - [load_peak]: the worst 5-second average seen in the last 30 s —
     a max over [load_avg]'s own output stream, demonstrating query
     composition (§2.2).

   Halfway through, a rack of machines disconnects; the queries keep
   reporting for the survivors and completeness tells the operator how
   much of the fleet each answer covers. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Value = Mortar_core.Value

let program =
  {|
load_avg  = avg(stream("cpu")) window time 5s 5s
hot       = select(stream("cpu"), value > 0.8)
hot_count = count(hot) window time 5s 5s
load_peak = max(load_avg) window time 30s 30s on [0]
|}

let () =
  let hosts = 120 in
  let rng = Mortar_util.Rng.create 31 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:10 ~hosts () in
  let d = D.create_sharded ~seed:31 topo in
  D.converge_coordinates d ();

  let metas =
    Mortar_core.Msl.query_metas (Mortar_core.Msl.parse program) ~root:0 ~total_nodes:hosts ()
  in
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let fleet_treeset = D.plan d ~bf:8 ~d:4 ~root:0 ~nodes () in
  List.iter
    (fun ((meta : Mortar_core.Query.meta), scope) ->
      let treeset =
        match scope with
        | Mortar_core.Msl.All -> fleet_treeset
        | Mortar_core.Msl.Nodes _ ->
          Mortar_overlay.Treeset.random (D.rng d) ~bf:2 ~d:1 ~root:0 ~nodes:[||]
      in
      D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset))
    metas;

  (* CPU sensors: a noisy sine per machine, so load swings slowly; a few
     machines run persistently hot. *)
  let cpu_rng = Mortar_util.Rng.create 77 in
  for node = 0 to hosts - 1 do
    D.sensor d ~node ~stream:"cpu" ~period:1.0 ~jitter:0.05 (fun k ->
        let base = if node mod 17 = 0 then 0.85 else 0.4 in
        let swing = 0.2 *. sin ((float_of_int k /. 20.0) +. float_of_int node) in
        let noise = Mortar_util.Rng.gaussian cpu_rng ~mu:0.0 ~sigma:0.05 in
        Value.Float (max 0.0 (min 1.0 (base +. swing +. noise))))
  done;

  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      match r.query with
      | "load_avg" ->
        Printf.printf "[t=%6.1fs] fleet load %.2f  (%d/%d machines)\n" (D.now d)
          (Value.to_float r.value) r.count hosts
      | "hot_count" ->
        let hot = Value.to_int r.value in
        if hot > 0 then
          Printf.printf "[t=%6.1fs]   %d machines above 80%% load\n" (D.now d) hot
      | "load_peak" ->
        Printf.printf "[t=%6.1fs]   30s peak load: %.2f\n" (D.now d) (Value.to_float r.value)
      | _ -> ());

  D.run_until d 60.0;
  print_endline ">>> a rack disconnects (15% of machines)";
  ignore (D.fail_random d ~fraction:0.15);
  D.run_until d 120.0;
  Printf.printf "done; %d machines still connected\n" (List.length (D.up_hosts d))
