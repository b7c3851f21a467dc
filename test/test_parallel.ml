(* The conservative parallel engine's determinism contract.

   Three layers, matching the places the contract can break:

   - Shard: cross-shard messages drain in the canonical
     (time, src_shard, seq) total order, independent of posting order.
   - Engine.run_before: the epoch body fires strictly below the bound,
     so an event at exactly [bound] belongs to the next epoch (where the
     barrier has already drained any message that could precede it).
   - Deployment: the observable simulation — metrics lines, trace
     lines, transport counters — is byte-identical whether the logical
     shards execute on 1 domain or 4. Checked on a loss-free
     aggregation run (fig01-style), on a fault-heavy run (soak-style)
     whose per-shard fault RNG streams are the subtle part, and on a run
     with constructor-level loss and jittered sensors, which draw from
     the per-shard transport streams and the sensors' split streams. *)

module Engine = Mortar_sim.Engine
module Shard = Mortar_sim.Shard
module Topology = Mortar_net.Topology
module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs
module D = Mortar_emul.Deployment

(* ------------------------------------------------------------------ *)
(* Shard mailbox canonical order. *)

let test_stamped_order () =
  let s ~time ~src_shard ~seq = { Shard.time; src_shard; seq; msg = () } in
  let lt a b =
    Alcotest.(check bool) "a < b" true (Shard.compare_stamped a b < 0);
    Alcotest.(check bool) "b > a" true (Shard.compare_stamped b a > 0)
  in
  (* time dominates... *)
  lt (s ~time:1.0 ~src_shard:9 ~seq:9) (s ~time:2.0 ~src_shard:0 ~seq:0);
  (* ...then src_shard... *)
  lt (s ~time:1.0 ~src_shard:1 ~seq:9) (s ~time:1.0 ~src_shard:2 ~seq:0);
  (* ...then seq; equal keys compare equal. *)
  lt (s ~time:1.0 ~src_shard:1 ~seq:3) (s ~time:1.0 ~src_shard:1 ~seq:4);
  Alcotest.(check int)
    "equal keys" 0
    (Shard.compare_stamped (s ~time:1.0 ~src_shard:1 ~seq:3) (s ~time:1.0 ~src_shard:1 ~seq:3))

let test_outbox_drain_canonical () =
  let shards = 3 in
  let obs = Array.init shards (fun src_shard -> Shard.create_outbox ~src_shard ~shards) in
  (* Post out of time order from two sources, all bound for shard 2. *)
  Shard.post obs.(0) ~dst_shard:2 ~time:5.0 "a0@5";
  Shard.post obs.(0) ~dst_shard:2 ~time:3.0 "a1@3";
  Shard.post obs.(1) ~dst_shard:2 ~time:3.0 "b0@3";
  Shard.post obs.(0) ~dst_shard:2 ~time:3.0 "a2@3";
  Shard.post obs.(1) ~dst_shard:2 ~time:1.0 "b1@1";
  (* And one message for shard 0, which must not leak into shard 2's drain. *)
  Shard.post obs.(1) ~dst_shard:0 ~time:0.5 "b2@0.5";
  let msgs = List.map (fun st -> st.Shard.msg) (Shard.drain obs ~dst_shard:2) in
  (* Ties at t=3.0 break by src_shard (a1, a2 before b0), then by seq
     (a1 posted before a2). *)
  Alcotest.(check (list string))
    "canonical (time, src_shard, seq)"
    [ "b1@1"; "a1@3"; "a2@3"; "b0@3"; "a0@5" ]
    msgs;
  Alcotest.(check int) "mailbox cleared" 0 (List.length (Shard.drain obs ~dst_shard:2));
  let for0 = List.map (fun st -> st.Shard.msg) (Shard.drain obs ~dst_shard:0) in
  Alcotest.(check (list string)) "other shard untouched" [ "b2@0.5" ] for0

(* ------------------------------------------------------------------ *)
(* Strict epoch bound. *)

let test_run_before_strict () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule e ~after:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0 ];
  Engine.run_before e 2.0;
  Alcotest.(check (list (float 0.0))) "only below the bound" [ 1.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at bound" 2.0 (Engine.now e);
  Alcotest.(check bool) "t=2 still pending" true (Engine.next_time e = Some 2.0);
  (* The next epoch picks the boundary event up. *)
  Engine.run_before e 2.5;
  Alcotest.(check (list (float 0.0))) "boundary fires next epoch" [ 1.0; 2.0 ] (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Domain-count independence of the full deployment. *)

type capture = {
  metrics : string list;
  trace : string list;
  sent : int;
  delivered : int;
  results : (float * int) list;
}

(* Run one seeded scenario at the given domain count with observability
   on, and capture everything externally visible. *)
let run_scenario ~domains input =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := true;
      let hosts = 48 in
      let rng = Rng.create 2718 in
      let topo = Topology.transit_stub rng ~hosts ~transits:3 ~stubs:6 () in
      let noisy = input = `Noisy in
      let loss = if noisy then 0.05 else 0.0 in
      let jitter = if noisy then 0.2 else 0.0 in
      let d = D.create_sharded ~seed:2718 ~loss ~domains topo in
      let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
      let treeset = D.plan_random d ~bf:8 ~root:0 ~nodes () in
      let meta =
        Mortar_core.Query.make_meta ~name:"par-count" ~source:"ones"
          ~op:Mortar_core.Op.Sum ~window:(Mortar_core.Window.tumbling 1.0)
          ~mode:Mortar_core.Query.Syncless ~root:0 ~degree:4 ~total_nodes:hosts
          ~aggregate:true ()
      in
      for i = 0 to hosts - 1 do
        D.sensor d ~node:i ~stream:"ones" ~period:1.0 ~jitter (fun _ -> Mortar_core.Value.Int 1)
      done;
      let results = ref [] in
      Mortar_core.Peer.on_result (D.peer d 0) (fun (r : Mortar_core.Peer.result) ->
          results := (D.now d, r.count) :: !results);
      D.at d 1.0 (fun () -> Mortar_core.Peer.install_query (D.peer d 0) meta treeset);
      if input = `Faults then
        D.schedule_faults d
          [
            D.Partition_stub { stub = 2; from = 3.0; until = 6.0 };
            D.Link_loss
              { src = [ 1; 2; 3 ]; dst = [ 0 ]; rate = 0.5; sym = true; from = 2.0; until = 9.0 };
            D.Crash_recover { node = 5; at = 4.0; recover_at = 7.0 };
          ];
      D.run_until d 11.0;
      {
        metrics = Obs.Reg.metrics_lines Obs.default;
        trace = Obs.Reg.trace_lines Obs.default;
        sent = D.messages_sent d;
        delivered = D.messages_delivered d;
        results = List.rev !results;
      })

let check_identical name a b =
  Alcotest.(check (list string)) (name ^ ": metrics lines") a.metrics b.metrics;
  Alcotest.(check (list string)) (name ^ ": trace lines") a.trace b.trace;
  Alcotest.(check int) (name ^ ": messages sent") a.sent b.sent;
  Alcotest.(check int) (name ^ ": messages delivered") a.delivered b.delivered;
  Alcotest.(check (list (pair (float 0.0) int))) (name ^ ": root results") a.results b.results;
  (* The run did something: traffic flowed and the root saw windows. *)
  Alcotest.(check bool) (name ^ ": nonempty trace") true (a.trace <> []);
  Alcotest.(check bool) (name ^ ": root got results") true (List.length a.results > 0)

let test_domains_identical name input () =
  check_identical name (run_scenario ~domains:1 input) (run_scenario ~domains:4 input)

(* Sketch queries extend the contract: the packed partial bytes the
   root delivers — not just the counts — must be identical across
   domain counts. Count-Min serialization is a pure function of the
   cell contents, so any merge-order divergence between shard
   schedules would show up here as differing bytes. *)
let run_sketch_scenario ~domains () =
  let hosts = 48 in
  let rng = Rng.create 2718 in
  let topo = Topology.transit_stub rng ~hosts ~transits:3 ~stubs:6 () in
  let d = D.create_sharded ~seed:2718 ~domains topo in
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan_random d ~bf:8 ~root:0 ~nodes () in
  let meta =
    Mortar_core.Query.make_meta ~name:"par-cm" ~source:"vals"
      ~op:(Mortar_core.Op.Sketch_count_min { depth = 4; width = 32; seed = 7 })
      ~window:(Mortar_core.Window.tumbling 1.0) ~root:0 ~degree:2 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"vals" ~period:0.25 (fun k ->
        Mortar_core.Value.Int ((i * 13) + k mod 11))
  done;
  let results = ref [] in
  Mortar_core.Peer.on_result (D.peer d 0) (fun (r : Mortar_core.Peer.result) ->
      let packed =
        match r.value with Mortar_core.Value.Str s -> s | _ -> "<not packed>"
      in
      results := (r.slot, r.count, Digest.to_hex (Digest.string packed)) :: !results);
  D.at d 1.0 (fun () -> Mortar_core.Peer.install_query (D.peer d 0) meta treeset);
  D.schedule_faults d
    [
      D.Link_loss
        { src = [ 1; 2; 3 ]; dst = [ 0 ]; rate = 0.5; sym = true; from = 2.0; until = 6.0 };
      D.Crash_recover { node = 5; at = 3.0; recover_at = 6.0 };
    ];
  D.run_until d 9.0;
  List.rev !results

let test_domains_identical_sketch () =
  let a = run_sketch_scenario ~domains:1 () in
  let b = run_sketch_scenario ~domains:4 () in
  Alcotest.(check (list (triple int int string)))
    "sketch: identical packed bytes" a b;
  Alcotest.(check bool) "sketch: root got results" true (List.length a > 0)

let tests =
  [
    Alcotest.test_case "stamped canonical order" `Quick test_stamped_order;
    Alcotest.test_case "outbox drain canonical" `Quick test_outbox_drain_canonical;
    Alcotest.test_case "run_before strict bound" `Quick test_run_before_strict;
    Alcotest.test_case "1 vs 4 domains identical (clean)" `Quick
      (test_domains_identical "clean" `Clean);
    Alcotest.test_case "1 vs 4 domains identical (faults)" `Quick
      (test_domains_identical "faulty" `Faults);
    Alcotest.test_case "1 vs 4 domains identical (sketch bytes)" `Quick
      test_domains_identical_sketch;
    Alcotest.test_case "1 vs 4 domains identical (loss + jitter)" `Quick
      (test_domains_identical "noisy" `Noisy);
  ]
