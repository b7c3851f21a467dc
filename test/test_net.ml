(* Tests for the topology generator and the datagram transport. *)

module Topology = Mortar_net.Topology
module Transport = Mortar_net.Transport
module Engine = Mortar_sim.Engine
module Rng = Mortar_util.Rng

let make_topo ?(hosts = 60) ?(seed = 3) () =
  Topology.transit_stub (Rng.create seed) ~transits:4 ~stubs:8 ~hosts ()

let test_topology_symmetric () =
  let t = make_topo () in
  for _ = 1 to 200 do
    let rng = Rng.create 1 in
    let a = Rng.int rng 60 and b = Rng.int rng 60 in
    Alcotest.(check (float 1e-12)) "symmetric" (Topology.latency t a b) (Topology.latency t b a)
  done

let test_topology_self_zero () =
  let t = make_topo () in
  Alcotest.(check (float 0.0)) "self latency" 0.0 (Topology.latency t 5 5);
  Alcotest.(check int) "self hops" 0 (Topology.hops t 5 5)

let test_topology_latency_ranges () =
  let t = make_topo () in
  let n = Topology.hosts t in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        let l = Topology.latency t a b in
        (* At least host-stub-host: 2 ms; at most a long transit path. *)
        Alcotest.(check bool) "lower bound" true (l >= 0.002 -. 1e-12);
        Alcotest.(check bool) "upper bound" true (l <= 0.150)
      end
    done
  done

let test_topology_same_stub_cheap () =
  let t = make_topo ~hosts:200 () in
  (* Hosts on the same stub are exactly 2 ms apart (1 ms up + 1 ms down). *)
  let found = ref false in
  for a = 0 to 199 do
    for b = a + 1 to 199 do
      if Topology.stub_of t a = Topology.stub_of t b then begin
        found := true;
        Alcotest.(check (float 1e-9)) "2ms intra-stub" 0.002 (Topology.latency t a b)
      end
    done
  done;
  Alcotest.(check bool) "pairs exist" true !found

let test_topology_triangle_inequality () =
  (* Shortest-path latencies satisfy the triangle inequality. *)
  let t = make_topo () in
  let rng = Rng.create 9 in
  for _ = 1 to 500 do
    let a = Rng.int rng 60 and b = Rng.int rng 60 and c = Rng.int rng 60 in
    Alcotest.(check bool) "triangle" true
      (Topology.latency t a b <= Topology.latency t a c +. Topology.latency t c b +. 1e-12)
  done

let test_topology_star () =
  let t = Topology.star ~link_delay:0.001 ~hosts:10 in
  Alcotest.(check (float 1e-12)) "2 x link" 0.002 (Topology.latency t 0 9);
  Alcotest.(check int) "2 hops" 2 (Topology.hops t 0 9)

let test_topology_max_latency () =
  let t = make_topo () in
  let n = Topology.hosts t in
  let max_seen = ref 0.0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if Topology.latency t a b > !max_seen then max_seen := Topology.latency t a b
    done
  done;
  Alcotest.(check (float 1e-12)) "max matches" !max_seen (Topology.max_latency t)

(* ------------------------------------------------------------------ *)
(* Transport *)

let make_world () =
  let topo = make_topo () in
  let engine = Engine.create () in
  let transport = Transport.create engine topo ~rng:(Rng.create 4) () in
  (engine, topo, transport)

let test_transport_delivery_latency () =
  let engine, topo, transport = make_world () in
  let arrived = ref (-1.0) in
  Transport.register transport 1 (fun ~src:_ _m -> arrived := Engine.now engine);
  Transport.send transport ~src:0 ~dst:1 ~size:100 ~kind:"data" "hello";
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "arrives after one-way latency" (Topology.latency topo 0 1)
    !arrived

let test_transport_down_drops () =
  let engine, _, transport = make_world () in
  let got = ref 0 in
  Transport.register transport 1 (fun ~src:_ _ -> incr got);
  Transport.set_up transport 1 false;
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  Engine.run engine;
  Alcotest.(check int) "down host receives nothing" 0 !got;
  Transport.set_up transport 1 true;
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  Engine.run engine;
  Alcotest.(check int) "up again" 1 !got

let test_transport_down_source_drops () =
  let engine, _, transport = make_world () in
  let got = ref 0 in
  Transport.register transport 1 (fun ~src:_ _ -> incr got);
  Transport.set_up transport 0 false;
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  Engine.run engine;
  Alcotest.(check int) "disconnected source sends nothing" 0 !got

let test_transport_loss () =
  let topo = make_topo () in
  let engine = Engine.create () in
  let transport =
    (Transport.create_sharded ~engines:[| engine |]
       ~shard_of:(Array.make (Topology.hosts topo) 0)
       ~rngs:[| Rng.create 5 |]
       ~faults:[| Mortar_net.Faults.create ~hosts:(Topology.hosts topo) ~rng:(Rng.create 6) () |]
       ~batches:(Mortar_sim.Shard.create ~shards:1) topo ~loss:0.5 ()).(0)
  in
  let got = ref 0 in
  Transport.register transport 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 1000 do
    Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x"
  done;
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "about half lost (got %d)" !got)
    true
    (!got > 400 && !got < 600)

let test_transport_bandwidth_accounting () =
  let engine, topo, transport = make_world () in
  Transport.register transport 1 (fun ~src:_ _ -> ());
  Transport.send transport ~src:0 ~dst:1 ~size:100 ~kind:"data" "x";
  Transport.send transport ~src:0 ~dst:1 ~size:50 ~kind:"heartbeat" "x";
  Engine.run engine;
  let hops = float_of_int (Topology.hops topo 0 1) in
  Alcotest.(check (float 1e-9)) "data bytes x hops" (100.0 *. hops)
    (Transport.total_bytes_of_kind transport ~kind:"data");
  Alcotest.(check (float 1e-9)) "heartbeat bytes x hops" (50.0 *. hops)
    (Transport.total_bytes_of_kind transport ~kind:"heartbeat");
  Alcotest.(check (float 1e-9)) "total" (150.0 *. hops) (Transport.total_bytes transport)

let test_transport_counts () =
  let engine, _, transport = make_world () in
  Transport.register transport 1 (fun ~src:_ _ -> ());
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  Engine.run engine;
  Transport.set_up transport 1 false;
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  Engine.run engine;
  Alcotest.(check int) "sent" 2 (Transport.messages_sent transport);
  Alcotest.(check int) "delivered" 1 (Transport.messages_delivered transport)

let test_transport_in_flight_loss_on_failure () =
  let engine, _, transport = make_world () in
  let got = ref 0 in
  Transport.register transport 1 (fun ~src:_ _ -> incr got);
  Transport.send transport ~src:0 ~dst:1 ~size:10 ~kind:"data" "x";
  (* The destination goes down before the message lands. *)
  ignore (Engine.post engine ~at:0.0001 (fun h -> Transport.set_up transport h false) 1);
  Engine.run engine;
  Alcotest.(check int) "in-flight message lost" 0 !got

let tests =
  [
    Alcotest.test_case "topology symmetric" `Quick test_topology_symmetric;
    Alcotest.test_case "topology self zero" `Quick test_topology_self_zero;
    Alcotest.test_case "topology latency ranges" `Quick test_topology_latency_ranges;
    Alcotest.test_case "topology same stub" `Quick test_topology_same_stub_cheap;
    Alcotest.test_case "topology triangle inequality" `Quick test_topology_triangle_inequality;
    Alcotest.test_case "topology star" `Quick test_topology_star;
    Alcotest.test_case "topology max latency" `Quick test_topology_max_latency;
    Alcotest.test_case "transport delivery latency" `Quick test_transport_delivery_latency;
    Alcotest.test_case "transport down drops" `Quick test_transport_down_drops;
    Alcotest.test_case "transport down source" `Quick test_transport_down_source_drops;
    Alcotest.test_case "transport loss" `Quick test_transport_loss;
    Alcotest.test_case "transport bandwidth" `Quick test_transport_bandwidth_accounting;
    Alcotest.test_case "transport counts" `Quick test_transport_counts;
    Alcotest.test_case "transport in-flight loss" `Quick test_transport_in_flight_loss_on_failure;
  ]
