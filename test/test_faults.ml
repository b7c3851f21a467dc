(* Tests for the fault-injection subsystem (lib/net/faults.ml), the
   transport's fault hook and delivery-time liveness, and the reliable
   control plane: the ISSUE's partition-and-heal acceptance scenario
   lives here. *)

module D = Mortar_emul.Deployment
module Faults = Mortar_net.Faults
module Transport = Mortar_net.Transport
module Topology = Mortar_net.Topology
module Engine = Mortar_sim.Engine
module Harness = Mortar_experiments.Harness
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Window = Mortar_core.Window
module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs

let make_faults ?(hosts = 8) ?(seed = 5) () = Faults.create ~hosts ~rng:(Rng.create seed) ()

(* ------------------------------------------------------------------ *)
(* Fault table unit tests. *)

(* Run [f] with observability on and a fresh default registry, so the
   global [faults.*] counters can be read back; restore on exit. *)
let with_obs f =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := true;
      f ())

let test_cut_and_heal () =
  with_obs (fun () ->
      let f = make_faults () in
      Alcotest.(check bool) "clean table passes" false (Faults.decide f ~src:0 ~dst:1).Faults.drop;
      let id = Faults.partition f ~a:[ 0 ] ~b:[ 1 ] in
      Alcotest.(check bool) "cut drops" true (Faults.decide f ~src:0 ~dst:1).Faults.drop;
      Alcotest.(check bool) "other pair unaffected" false
        (Faults.decide f ~src:2 ~dst:3).Faults.drop;
      Faults.clear f id;
      Alcotest.(check bool) "healed" false (Faults.decide f ~src:0 ~dst:1).Faults.drop;
      Alcotest.(check int) "one cut drop counted" 1
        (Obs.Reg.counter_value Obs.default "faults.cut_drops");
      Faults.clear f id (* double-clear is a no-op *))

let test_partition_symmetric () =
  let f = make_faults () in
  let _id = Faults.partition f ~a:[ 0; 1 ] ~b:[ 2; 3 ] in
  Alcotest.(check bool) "a->b drops" true (Faults.decide f ~src:0 ~dst:3).Faults.drop;
  Alcotest.(check bool) "b->a drops" true (Faults.decide f ~src:2 ~dst:1).Faults.drop;
  Alcotest.(check bool) "within a passes" false (Faults.decide f ~src:0 ~dst:1).Faults.drop;
  Alcotest.(check bool) "within b passes" false (Faults.decide f ~src:3 ~dst:2).Faults.drop;
  Alcotest.(check bool) "outsiders pass" false (Faults.decide f ~src:4 ~dst:5).Faults.drop

let test_isolate () =
  let f = make_faults () in
  let id = Faults.isolate f [ 2; 3 ] in
  Alcotest.(check bool) "in->out drops" true (Faults.decide f ~src:2 ~dst:7).Faults.drop;
  Alcotest.(check bool) "out->in drops" true (Faults.decide f ~src:0 ~dst:3).Faults.drop;
  Alcotest.(check bool) "inside passes" false (Faults.decide f ~src:2 ~dst:3).Faults.drop;
  Alcotest.(check bool) "outside passes" false (Faults.decide f ~src:0 ~dst:1).Faults.drop;
  Faults.clear f id;
  Alcotest.(check int) "no conditions left" 0 (Faults.active f)

let test_loss_rates () =
  let f = make_faults () in
  let always = Faults.loss f ~src:[ 0 ] ~dst:[ 1 ] ~rate:1.0 () in
  Alcotest.(check bool) "rate 1 drops" true (Faults.decide f ~src:0 ~dst:1).Faults.drop;
  Alcotest.(check bool) "asymmetric" false (Faults.decide f ~src:1 ~dst:0).Faults.drop;
  Faults.clear f always;
  let _half = Faults.loss f ~src:[ 0 ] ~dst:[ 1 ] ~rate:0.5 () in
  let dropped = ref 0 in
  for _ = 1 to 1000 do
    if (Faults.decide f ~src:0 ~dst:1).Faults.drop then incr dropped
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.5 drops about half (%d/1000)" !dropped)
    true
    (!dropped > 400 && !dropped < 600)

let test_bursty_extremes () =
  let f = make_faults () in
  (* p_enter = 1: the chain leaves the good state on the first message and
     never returns; with loss_bad = 1 everything after drops. *)
  let stuck = Faults.bursty f ~src:[ 0 ] ~dst:[ 1 ] ~p_enter:1.0 ~p_exit:0.0 ~loss_bad:1.0 () in
  for i = 1 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "msg %d dropped" i)
      true
      (Faults.decide f ~src:0 ~dst:1).Faults.drop
  done;
  Faults.clear f stuck;
  (* p_enter = 0 with loss_good = 0: the chain never leaves the good state
     and nothing drops. *)
  let _id = Faults.bursty f ~src:[ 0 ] ~dst:[ 1 ] ~p_enter:0.0 ~p_exit:1.0 ~loss_bad:1.0 () in
  for i = 1 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "msg %d passes" i)
      false
      (Faults.decide f ~src:0 ~dst:1).Faults.drop
  done

let test_jitter_delays () =
  with_obs (fun () ->
      let f = make_faults () in
      let _id = Faults.jitter f ~src:[ 0 ] ~dst:[ 1 ] ~extra:0.5 () in
      for _ = 1 to 20 do
        let d = Faults.decide f ~src:0 ~dst:1 in
        Alcotest.(check bool) "never drops" false d.Faults.drop;
        Alcotest.(check bool) "delay in [0, 0.5]" true
          (d.Faults.extra_delay >= 0.0 && d.Faults.extra_delay <= 0.5)
      done;
      Alcotest.(check int) "all counted" 20 (Obs.Reg.counter_value Obs.default "faults.delayed");
      Alcotest.(check bool) "unscoped pair undelayed" true
        (Float.equal (Faults.decide f ~src:2 ~dst:3).Faults.extra_delay 0.0))

let prop_partition_separates =
  (* Property: for any random split of the host set, a partition drops
     exactly the cross pairs and passes all intra pairs. *)
  QCheck.Test.make ~name:"partition drops exactly the cross pairs" ~count:50
    QCheck.(pair (int_range 2 24) (int_range 0 1000))
    (fun (hosts, seed) ->
      let rng = Rng.create seed in
      let side = Array.init hosts (fun _ -> Rng.float rng 1.0 < 0.5) in
      (* Force both sides non-empty. *)
      side.(0) <- true;
      side.(hosts - 1) <- false;
      let pick b = List.filter (fun h -> side.(h) = b) (List.init hosts Fun.id) in
      let f = Faults.create ~hosts ~rng:(Rng.split rng) () in
      let _id = Faults.partition f ~a:(pick true) ~b:(pick false) in
      let ok = ref true in
      for src = 0 to hosts - 1 do
        for dst = 0 to hosts - 1 do
          if src <> dst then begin
            let cross = side.(src) <> side.(dst) in
            if (Faults.decide f ~src ~dst).Faults.drop <> cross then ok := false
          end
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Transport: dst-only delivery liveness. *)

let make_transport () =
  let e = Engine.create () in
  let topo = Topology.star ~link_delay:0.001 ~hosts:4 in
  let tr = Transport.create e topo ~rng:(Rng.create 11) () in
  (e, tr)

let test_in_flight_outlives_sender () =
  let e, tr = make_transport () in
  let got = ref 0 in
  Transport.register tr 1 (fun ~src:_ () -> incr got);
  Transport.send tr ~src:0 ~dst:1 ~size:10 ~kind:"data" ();
  Transport.set_up tr 0 false;
  Engine.run e;
  Alcotest.(check int) "delivered despite sender crash" 1 !got;
  (* The destination going down does lose in-flight messages. *)
  Transport.set_up tr 0 true;
  Transport.send tr ~src:0 ~dst:1 ~size:10 ~kind:"data" ();
  Transport.set_up tr 1 false;
  Engine.run e;
  Alcotest.(check int) "lost when dst down" 1 !got

(* ------------------------------------------------------------------ *)
(* The acceptance scenario: partition a stub, assert zero cross-partition
   deliveries while the cut is active, install a second query that the cut
   stub cannot hear, heal, and check that reconciliation converges every
   peer to the injector's installed-query set. *)

let test_partition_and_heal () =
  let hosts = 32 in
  let h = Harness.create ~seed:41 ~hosts ~transits:4 ~stubs:6 ~bf:4 () in
  let d = Harness.deployment h in
  let topo = D.topology d in
  let cut_stub = (Topology.stub_of topo 0 + 1) mod 6 in
  let in_cut = Array.init hosts (fun i -> Topology.stub_of topo i = cut_stub) in
  Alcotest.(check bool) "cut stub nonempty" true (Array.exists Fun.id in_cut);
  let from = 10.0 and until = 25.0 in
  D.schedule_faults d [ D.Partition_stub { stub = cut_stub; from; until } ];
  (* Count deliveries crossing the partition while it is active. Messages
     already in flight when the cut lands may still arrive (faults act at
     send time), so leave one max-latency margin after [from]. *)
  let crossings = ref 0 in
  D.on_deliver d (fun ~src ~dst ~kind:_ ->
      let now = D.now d in
      if now >= from +. 0.5 && now < until && in_cut.(src) <> in_cut.(dst) then incr crossings);
  Harness.run_until h 12.0;
  (* Mid-partition: install a second query; the cut stub cannot hear it. *)
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let ts2 = D.plan d ~bf:4 ~root:0 ~nodes () in
  let meta2 =
    Query.make_meta ~name:"q2" ~source:"ones" ~op:Mortar_core.Op.Sum
      ~window:(Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  Peer.install_query (D.peer d 0) meta2 ts2;
  Harness.run_until h until;
  Alcotest.(check int) "zero cross-partition deliveries" 0 !crossings;
  let missing q = Array.to_list nodes |> List.filter (fun i -> not (Peer.has_query (D.peer d i) q)) in
  Alcotest.(check bool) "cut stub missed q2" true (List.length (missing "q2") > 0);
  (* Heal and let §6.1 reconciliation repair the stragglers. *)
  Harness.run_until h 70.0;
  Alcotest.(check (list int)) "all peers have q1 post-heal" [] (missing Harness.query_name);
  Alcotest.(check (list int)) "all peers have q2 post-heal" [] (missing "q2")

(* Down means crashed: from [at] to [recover_at] none of the host's
   timers fires, so none of its counts moves and it sends nothing (a send
   from a down host would show up as a "down" drop with it as source).
   It rejoins after [recover_at]. *)
let test_crash_silences_host () =
  with_obs (fun () ->
      let hosts = 32 and node = 5 and at = 12.0 and recover_at = 22.0 in
      let config = { Peer.default_config with Peer.self_heal = true; ctl_retries = 2 } in
      let h = Harness.create ~seed:43 ~hosts ~transits:4 ~stubs:6 ~bf:4 ~config () in
      let d = Harness.deployment h in
      let p = D.peer d node in
      let snapshot () = Array.map (Peer.count p) Peer.counters in
      let down = ref [||] and up = ref [||] in
      (* Scheduled ahead of the fault, so it runs just before the restart. *)
      D.at d recover_at (fun () -> up := snapshot ());
      D.schedule_faults d [ D.Crash_recover { node; at; recover_at } ];
      D.at d at (fun () -> down := snapshot ());
      Harness.run_until h 60.0;
      Alcotest.(check bool) "installed before the crash" true (Peer.count p Peer.Installs > 0);
      Alcotest.(check int) "crashed once" 1 (Peer.count p Peer.Crashes);
      Alcotest.(check (array int)) "no count moves while down" !down !up;
      let sent_while_down =
        List.filter
          (function
            | time, Obs.Tuple_drop { src; reason = "down"; _ } ->
              src = node && time >= at && time < recover_at
            | _ -> false)
          (Obs.Reg.events Obs.default)
      in
      Alcotest.(check int) "no sends while down" 0 (List.length sent_while_down);
      Alcotest.(check bool) "rejoined" true (Peer.has_query p Harness.query_name))

(* ------------------------------------------------------------------ *)
(* Reliable control plane. *)

(* Install completeness with reconciliation disabled (huge heartbeat
   period), so retry/backoff is the only repair mechanism. *)
let install_completeness ~retries ~loss =
  let hosts = 64 in
  let rng = Rng.create 23 in
  let topo = Topology.transit_stub rng ~transits:4 ~stubs:6 ~hosts () in
  let config = { Peer.default_config with Peer.hb_period = 1e6; ctl_retries = retries } in
  let d = D.create_sharded ~seed:29 ~config ~loss topo in
  D.converge_coordinates d ();
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:4 ~root:0 ~nodes () in
  let meta =
    Query.make_meta ~name:"q" ~source:"s" ~op:Mortar_core.Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset);
  D.run_until d 60.0;
  let installed = ref 0 in
  for i = 0 to hosts - 1 do
    if Peer.has_query (D.peer d i) "q" then incr installed
  done;
  float_of_int !installed /. float_of_int hosts

let test_retries_improve_install_completeness () =
  let without = install_completeness ~retries:0 ~loss:0.2 in
  let with_r = install_completeness ~retries:4 ~loss:0.2 in
  Alcotest.(check bool)
    (Printf.sprintf "fire-and-forget loses peers (%.2f)" without)
    true (without < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "retries strictly better (%.2f > %.2f)" with_r without)
    true (with_r > without);
  Alcotest.(check bool)
    (Printf.sprintf "retries near-complete (%.2f)" with_r)
    true (with_r > 0.95)

let test_ctl_ack_clears_in_flight () =
  (* On a clean network every reliable control message is acked promptly:
     nothing stays in flight and nothing is retransmitted. *)
  let hosts = 16 in
  let rng = Rng.create 31 in
  let topo = Topology.transit_stub rng ~transits:2 ~stubs:4 ~hosts () in
  let config = { Peer.default_config with Peer.ctl_retries = 4 } in
  let d = D.create_sharded ~seed:37 ~config topo in
  D.converge_coordinates d ();
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:4 ~root:0 ~nodes () in
  let meta =
    Query.make_meta ~name:"q" ~source:"s" ~op:Mortar_core.Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset);
  D.run_until d 30.0;
  for i = 0 to hosts - 1 do
    Alcotest.(check int)
      (Printf.sprintf "peer %d nothing in flight" i)
      0
      (Peer.ctl_in_flight (D.peer d i))
  done;
  let s = Peer.stats (D.peer d 0) in
  Alcotest.(check bool) "installs were acked" true (Peer.count (D.peer d 0) Peer.Ctl_acked > 0);
  Alcotest.(check int) "no retransmissions needed" 0 s.Peer.ctl_retransmits;
  Alcotest.(check int) "nothing abandoned" 0 s.Peer.ctl_abandoned

let test_ctl_budget_abandons () =
  (* A permanently cut destination exhausts the retry budget and is
     abandoned — the sender does not retry forever. *)
  let e = Engine.create () in
  let topo = Topology.star ~link_delay:0.005 ~hosts:2 in
  let tr = Transport.create e topo ~rng:(Rng.create 3) () in
  let f = Faults.create ~hosts:2 ~rng:(Rng.create 4) () in
  Transport.set_faults tr f;
  let mk self =
    Peer.create
      ~config:{ Peer.default_config with Peer.ctl_retries = 4 }
      {
        Peer.self;
        send = (fun ~dst ~size ~kind p -> Transport.send tr ~src:self ~dst ~size ~kind p);
        local_time = (fun () -> Engine.now e);
        latency_to = (fun _ -> 0.005);
        set_timer =
          (fun ~after fn -> Engine.schedule e ~after fn);
        cancel_timer = Engine.cancel e;
        rng = Rng.create 7;
      }
  in
  let p0 = mk 0 and p1 = mk 1 in
  Transport.register tr 0 (fun ~src m -> Peer.receive p0 ~src m);
  Transport.register tr 1 (fun ~src m -> Peer.receive p1 ~src m);
  ignore (Faults.partition f ~a:[ 0 ] ~b:[ 1 ]);
  let rng = Rng.create 41 in
  let treeset = Mortar_overlay.Treeset.random rng ~bf:2 ~d:1 ~root:0 ~nodes:[| 1 |] in
  let meta =
    Query.make_meta ~name:"q" ~source:"s" ~op:Mortar_core.Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:2 ()
  in
  Peer.install_query p0 meta treeset;
  Engine.run ~until:120.0 e;
  let s = Peer.stats p0 in
  Alcotest.(check bool) "retransmitted" true (s.Peer.ctl_retransmits > 0);
  Alcotest.(check bool) "gave up" true (s.Peer.ctl_abandoned > 0);
  Alcotest.(check int) "nothing left in flight" 0 (Peer.ctl_in_flight p0);
  Alcotest.(check bool) "destination never installed" false (Peer.has_query p1 "q")

let tests =
  [
    Alcotest.test_case "cut and heal" `Quick test_cut_and_heal;
    Alcotest.test_case "partition is symmetric" `Quick test_partition_symmetric;
    Alcotest.test_case "isolate" `Quick test_isolate;
    Alcotest.test_case "loss rates" `Quick test_loss_rates;
    Alcotest.test_case "bursty extremes" `Quick test_bursty_extremes;
    Alcotest.test_case "jitter delays" `Quick test_jitter_delays;
    QCheck_alcotest.to_alcotest prop_partition_separates;
    Alcotest.test_case "in-flight outlives sender" `Quick test_in_flight_outlives_sender;
    Alcotest.test_case "partition and heal scenario" `Slow test_partition_and_heal;
    Alcotest.test_case "crashed host is silent until restart" `Quick test_crash_silences_host;
    Alcotest.test_case "retries improve installs" `Slow test_retries_improve_install_completeness;
    Alcotest.test_case "acks clear in-flight" `Quick test_ctl_ack_clears_in_flight;
    Alcotest.test_case "retry budget abandons" `Quick test_ctl_budget_abandons;
  ]
