(* The conservative parallel engine's determinism contract.

   Three layers, matching the places the contract can break:

   - Shard: cross-shard messages drain in the canonical
     (time, src_shard, seq) total order, independent of posting order,
     one batch set per epoch parity.
   - Engine.run_before: the epoch body fires strictly below the bound,
     so an event at exactly [bound] belongs to the next epoch (which
     merges any message that could precede it before running).
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
(* Shard batch canonical order. *)

let post b ~src_shard ~dst_shard ~time msg =
  Shard.post b ~src_shard ~dst_shard ~time ~src:src_shard ~dst:dst_shard ~kind:"data" msg

(* [dst_shard]'s pending messages, drained in order. *)
let drain_list b ~dst_shard =
  let out = ref [] in
  Shard.drain b ~dst_shard (fun batch pos -> out := Shard.payload batch pos :: !out);
  List.rev !out

let test_stamped_order () =
  let b = Shard.create ~shards:10 in
  (* time dominates... *)
  post b ~src_shard:9 ~dst_shard:0 ~time:1.0 "t1-s9";
  post b ~src_shard:0 ~dst_shard:0 ~time:2.0 "t2-s0";
  (* ...then src_shard... *)
  post b ~src_shard:2 ~dst_shard:0 ~time:0.5 "t.5-s2";
  post b ~src_shard:1 ~dst_shard:0 ~time:0.5 "t.5-s1-a";
  (* ...then seq, the posting order within a source. *)
  post b ~src_shard:1 ~dst_shard:0 ~time:0.5 "t.5-s1-b";
  Shard.flip b;
  Alcotest.(check (list string))
    "(time, src_shard, seq)"
    [ "t.5-s1-a"; "t.5-s1-b"; "t.5-s2"; "t1-s9"; "t2-s0" ]
    (drain_list b ~dst_shard:0)

let test_outbox_drain_canonical () =
  let b = Shard.create ~shards:3 in
  (* Post out of time order from two sources, all bound for shard 2. *)
  post b ~src_shard:0 ~dst_shard:2 ~time:5.0 "a0@5";
  post b ~src_shard:0 ~dst_shard:2 ~time:3.0 "a1@3";
  post b ~src_shard:1 ~dst_shard:2 ~time:3.0 "b0@3";
  post b ~src_shard:0 ~dst_shard:2 ~time:3.0 "a2@3";
  post b ~src_shard:1 ~dst_shard:2 ~time:1.0 "b1@1";
  (* And one message for shard 0, which must not leak into shard 2's drain. *)
  post b ~src_shard:1 ~dst_shard:0 ~time:0.5 "b2@0.5";
  Alcotest.(check (list string)) "nothing pending before the flip" [] (drain_list b ~dst_shard:2);
  Alcotest.(check (float 0.0)) "no pending minimum" infinity (Shard.pending_min b);
  Shard.flip b;
  Alcotest.(check (float 0.0)) "pending minimum" 0.5 (Shard.pending_min b);
  (* Posts after the flip go to the other set and wait for the next one. *)
  post b ~src_shard:0 ~dst_shard:2 ~time:0.1 "next";
  (* Ties at t=3.0 break by src_shard (a1, a2 before b0), then by seq
     (a1 posted before a2). *)
  Alcotest.(check (list string))
    "canonical (time, src_shard, seq)"
    [ "b1@1"; "a1@3"; "a2@3"; "b0@3"; "a0@5" ]
    (drain_list b ~dst_shard:2);
  Alcotest.(check (list string)) "batches cleared" [] (drain_list b ~dst_shard:2);
  Alcotest.(check (list string)) "other shard untouched" [ "b2@0.5" ] (drain_list b ~dst_shard:0);
  Alcotest.(check (float 0.0)) "drained" infinity (Shard.pending_min b);
  Shard.flip b;
  Alcotest.(check (list string)) "next epoch" [ "next" ] (drain_list b ~dst_shard:2)

(* Random posts from random source shards (coarse times, so ties are
   common) drain per destination exactly as a stable sort of the posting
   sequence by (time, src_shard): the posting order within a source is
   its seq. Two epochs check that batches are reused cleanly. *)
let prop_drain_is_sort =
  let post_gen = QCheck.Gen.(triple (int_bound 4) (int_bound 4) (int_bound 6)) in
  QCheck.Test.make ~name:"shard drain = sort by (time, src_shard, seq)" ~count:300
    QCheck.(
      make
        ~print:Print.(pair (list (triple int int int)) (list (triple int int int)))
        Gen.(pair (list_size (int_bound 60) post_gen) (list_size (int_bound 60) post_gen)))
    (fun (epoch1, epoch2) ->
      let shards = 5 in
      let b = Shard.create ~shards in
      let run posts =
        List.iteri
          (fun i (s, d, tm) -> post b ~src_shard:s ~dst_shard:d ~time:(float_of_int tm /. 4.0) i)
          posts;
        Shard.flip b;
        let indexed = List.mapi (fun i p -> (i, p)) posts in
        List.for_all
          (fun d ->
            let expected =
              List.filter (fun (_, (_, d', _)) -> d' = d) indexed
              |> List.stable_sort (fun (_, (s1, _, t1)) (_, (s2, _, t2)) ->
                     compare (t1, s1) (t2, s2))
              |> List.map fst
            in
            drain_list b ~dst_shard:d = expected)
          (List.init shards Fun.id)
      in
      run epoch1 && run epoch2)

(* ------------------------------------------------------------------ *)
(* Strict epoch bound. *)

let test_run_before_strict () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.post e ~at:t (fun _ -> fired := t :: !fired) 0))
    [ 1.0; 2.0; 3.0 ];
  Engine.run_before e 2.0;
  Alcotest.(check (list (float 0.0))) "only below the bound" [ 1.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at bound" 2.0 (Engine.now e);
  Alcotest.(check (float 0.0)) "t=2 still pending" 2.0 (Engine.next_time e);
  (* The next epoch picks the boundary event up. *)
  Engine.run_before e 2.5;
  Alcotest.(check (list (float 0.0))) "boundary fires next epoch" [ 1.0; 2.0 ] (List.rev !fired)

(* ------------------------------------------------------------------ *)
(* Allocation on the cross-shard message path. *)

(* Minor words per message for a cross-shard send, post, merge and
   delivery, wired as the deployment wires them: two shards, one shared
   batch set, a counting handler. Measured 0.2 words per message in the
   release profile, where the float-carrying wrappers inline (the rest is
   per-round overhead), and 16.2 in the dev profile [dune runtest] uses,
   whose [-opaque] builds box a float at each of eight module-boundary
   calls. The bound is the dev figure plus slack for less than one more
   boxed float; any per-message record, closure or list cell breaks
   it. *)
let test_cross_shard_alloc () =
  let topo = Topology.transit_stub (Rng.create 5) ~transits:1 ~stubs:2 ~hosts:8 () in
  let shard_of = Array.init 8 (Topology.stub_of topo) in
  let host_in stub = List.find (fun h -> shard_of.(h) = stub) (List.init 8 Fun.id) in
  let a = host_in 0 and b = host_in 1 in
  let engines = Array.init 2 (fun _ -> Engine.create ()) in
  let batches = Shard.create ~shards:2 in
  let trs =
    Mortar_net.Transport.create_sharded ~engines ~shard_of
      ~rngs:(Array.init 2 (fun i -> Rng.create i))
      ~faults:(Array.init 2 (fun i -> Mortar_net.Faults.create ~hosts:8 ~rng:(Rng.create i) ()))
      ~batches topo ()
  in
  let got = ref 0 in
  Mortar_net.Transport.register trs.(1) b (fun ~src:_ n -> got := !got + n);
  let round n =
    for _ = 1 to n do
      Mortar_net.Transport.send trs.(0) ~src:a ~dst:b ~size:100 ~kind:"data" 1
    done;
    Shard.flip batches;
    Mortar_net.Transport.merge_inbox trs.(1);
    Engine.run engines.(1)
  in
  (* Warm up: grow every column to its steady size. *)
  round 64;
  let rounds = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round 64
  done;
  let per_msg = (Gc.minor_words () -. w0) /. float_of_int (rounds * 64) in
  Alcotest.(check int) "all delivered" ((rounds + 1) * 64) !got;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per cross-shard message %.2f <= 18" per_msg)
    true (per_msg <= 18.0)

(* ------------------------------------------------------------------ *)
(* Domain-count independence of the full deployment. *)

type capture = {
  metrics : string list;
  trace : string list;
  sent : int;
  delivered : int;
  results : (float * int) list;
}

(* Gilbert–Elliott loss between host sets [a] and [b], both directions. *)
let bursty_both ~a ~b ~from ~until =
  List.map
    (fun (src, dst) ->
      D.Bursty_loss
        { src; dst; p_enter = 0.3; p_exit = 0.3; loss_bad = 0.8; loss_good = 0.0; from; until })
    [ (a, b); (b, a) ]

(* Run one seeded scenario at the given domain count with observability
   on, calling [run_until] at each of [stops] in turn, and hand the
   deployment and the root's results to [k] before the registry is
   cleared. *)
let with_scenario ~domains ?(stops = [ 11.0 ]) input k =
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
          (D.Partition_stub { stub = 2; from = 3.0; until = 6.0 }
          :: D.Crash_recover { node = 5; at = 4.0; recover_at = 7.0 }
          :: bursty_both ~a:[ 1; 2; 3 ] ~b:[ 0 ] ~from:2.0 ~until:9.0);
      List.iter (D.run_until d) stops;
      k d (List.rev !results))

(* Everything externally visible. *)
let run_scenario ~domains input =
  with_scenario ~domains input (fun d results ->
      {
        metrics = Obs.Reg.metrics_lines Obs.default;
        trace = Obs.Reg.trace_lines Obs.default;
        sent = D.messages_sent d;
        delivered = D.messages_delivered d;
        results;
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

(* Peer counts reach the dump only through the deployment's end-of-run
   flush, as what each count gained since the previous flush. With the
   fault scenario cut into several runs (one of them empty), every
   host's exported counter must still equal the peer's own count, and a
   counter that stayed 0 must have no dump line at all. *)
let test_counter_export_exact () =
  let module Peer = Mortar_core.Peer in
  List.iter
    (fun domains ->
      with_scenario ~domains ~stops:[ 2.5; 4.0; 4.0; 7.3; 11.0 ] `Faults (fun d _ ->
          let lines = Obs.Reg.metrics_lines Obs.default in
          let exported = Dump.counters Obs.default in
          let zeros = ref 0 and counted = ref 0 in
          for h = 0 to D.hosts d - 1 do
            Array.iter
              (fun c ->
                let name = Peer.counter_name c in
                let own = Peer.count (D.peer d h) c in
                let what = Printf.sprintf "domains %d, host %d, %s" domains h name in
                Alcotest.(check int) what own (exported ~scope:(Printf.sprintf "node:%d" h) name);
                if own = 0 then begin
                  incr zeros;
                  let prefix =
                    Printf.sprintf {|{"metric":"counter","scope":"node:%d","name":"%s",|} h name
                  in
                  Alcotest.(check bool) (what ^ ": no line") false
                    (List.exists (String.starts_with ~prefix) lines)
                end
                else incr counted)
              Peer.counters
          done;
          (* Not vacuous: both branches above ran, and the scripted
             crash was counted once. *)
          Alcotest.(check int) "host 5 crashed once" 1 (Peer.count (D.peer d 5) Peer.Crashes);
          Alcotest.(check bool) "some counts exported" true (!counted > 0);
          Alcotest.(check bool) "some counts stayed 0" true (!zeros > 0)))
    [ 1; 4 ]

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
    (D.Crash_recover { node = 5; at = 3.0; recover_at = 6.0 }
    :: bursty_both ~a:[ 1; 2; 3 ] ~b:[ 0 ] ~from:2.0 ~until:6.0);
  D.run_until d 9.0;
  List.rev !results

let test_domains_identical_sketch () =
  let a = run_sketch_scenario ~domains:1 () in
  let b = run_sketch_scenario ~domains:4 () in
  Alcotest.(check (list (triple int int string)))
    "sketch: identical packed bytes" a b;
  Alcotest.(check bool) "sketch: root got results" true (List.length a > 0)

(* Drain placement: at a barrier where control events fire, the
   messages posted in the epoch that just ended are merged before the
   control events run, because a control event may schedule on a shard
   engine directly and must then sort after them on a time tie. Host a
   installs a query on host b (another shard) by a control event at s;
   the Install lands at T = s + latency(a, b), and the pair is chosen
   with latency(a, b) = lookahead so that no barrier falls between s and
   T. A second control event at T attaches a sensor on b whose first
   tick fires at T as well (a phase below 1e-300 rounds away). The
   Install, scheduled at the barrier, must be delivered before the tick,
   which the control event scheduled after it. *)
let test_control_barrier_merge_first () =
  let hosts = 24 in
  let topo = Topology.transit_stub (Rng.create 99) ~transits:2 ~stubs:4 ~hosts () in
  let d = D.create_sharded ~seed:99 ~domains:1 topo in
  let la = D.lookahead d in
  let pairs = List.init hosts (fun a -> List.init hosts (fun b -> (a, b))) |> List.concat in
  let a, b =
    List.find
      (fun (a, b) ->
        Topology.stub_of topo a <> Topology.stub_of topo b
        && Float.equal (Topology.latency topo a b) la)
      pairs
  in
  let s = 1.0 in
  let at_b = s +. Topology.latency topo a b in
  let log = ref [] in
  D.on_deliver d (fun ~src ~dst ~kind:_ ->
      if src = a && dst = b && not (List.mem "install" !log) then log := "install" :: !log);
  let meta =
    Mortar_core.Query.make_meta ~name:"barrier" ~source:"x" ~op:Mortar_core.Op.Sum
      ~window:(Mortar_core.Window.tumbling 1.0) ~root:a ~total_nodes:2 ()
  in
  let treeset = Mortar_overlay.Treeset.random (Rng.create 1) ~bf:2 ~d:1 ~root:a ~nodes:[| b |] in
  D.at d s (fun () -> Mortar_core.Peer.install_query (D.peer d a) meta treeset);
  D.at d at_b (fun () ->
      D.sensor d ~node:b ~stream:"x" ~period:1e-300 (fun k ->
          if k = 0 then log := "tick" :: !log;
          Mortar_core.Value.Int k));
  D.run_until d (at_b +. 0.0005);
  Alcotest.(check (list string)) "install before tick" [ "install"; "tick" ] (List.rev !log)

(* Several deployments may coexist in one process: each [run_until]
   routes Obs writes to its own shards and control registry, whatever
   was built since. [counting ~stubs] builds a fig01-style count over
   one shard per stub; [test_coexisting ~stubs_a ~stubs_b] builds A,
   then B, then runs A, and the dump of A's run must equal that of the
   same A built and run alone. *)
let counting ~stubs =
  let hosts = 32 in
  let topo = Topology.transit_stub (Rng.create 31) ~hosts ~transits:2 ~stubs () in
  let d = D.create_sharded ~seed:31 topo in
  let treeset = D.plan_random d ~bf:4 ~root:0 ~nodes:(Array.init (hosts - 1) succ) () in
  let meta =
    Mortar_core.Query.make_meta ~name:"coexist" ~source:"ones" ~op:Mortar_core.Op.Sum
      ~window:(Mortar_core.Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Mortar_core.Value.Int 1)
  done;
  D.at d 1.0 (fun () -> Mortar_core.Peer.install_query (D.peer d 0) meta treeset);
  d

(* The dump of [run (build ())], without the setup's own writes. *)
let dump_of build run =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.enabled := true;
      let built = build () in
      Obs.Reg.clear Obs.default;
      run built;
      ( Obs.Reg.metrics_lines Obs.default,
        Obs.Reg.trace_lines Obs.default,
        Dump.counters Obs.default "transport.delivered" ))

let test_coexisting ~stubs_a ~stubs_b () =
  let run a = D.run_until a 8.0 in
  let alone_metrics, alone_trace, _ = dump_of (fun () -> counting ~stubs:stubs_a) run in
  let metrics, trace, delivered =
    dump_of
      (fun () ->
        let a = counting ~stubs:stubs_a in
        let b = counting ~stubs:stubs_b in
        Alcotest.(check (pair int int)) "one shard per stub" (stubs_a, stubs_b)
          (D.shard_count a, D.shard_count b);
        a)
      run
  in
  Alcotest.(check (list string)) "A's metrics lines" alone_metrics metrics;
  Alcotest.(check (list string)) "A's trace lines" alone_trace trace;
  Alcotest.(check bool) "A's shards delivered and traced" true (delivered > 0 && trace <> [])

(* A slice that raises: whichever domain runs the shard, the pool
   catches the exception, still reaches its barrier and re-raises it on
   the caller, the lowest shard's first, with the shard context
   cleared. Sensors attached by a control event at 3 s first read at
   exactly 3 s (a phase below 1e-300 rounds away), so every shard in
   [raising] raises in the same epoch. *)
let raising_run ~domains raising =
  let hosts = 200 in
  let topo = Topology.transit_stub (Rng.create 7) ~hosts ~transits:2 ~stubs:8 () in
  let d = D.create_sharded ~seed:7 ~domains topo in
  D.at d 3.0 (fun () ->
      for i = 0 to hosts - 1 do
        let s = Topology.stub_of topo i in
        D.sensor d ~node:i ~stream:"x" ~period:1e-300 (fun _ ->
            if List.mem s raising then failwith (Printf.sprintf "shard %d" s);
            Mortar_core.Value.Int 1)
      done);
  match D.run_until d 5.0 with () -> "no exception" | exception Failure msg -> msg

let test_raising_slice () =
  let check ~domains raising expected =
    for _ = 1 to 5 do
      Alcotest.(check string) "lowest raising shard surfaces" expected
        (raising_run ~domains raising);
      Alcotest.(check (option int)) "shard context cleared" None (Mortar_par.Par.Ctx.get ())
    done
  in
  check ~domains:2 (List.init 8 Fun.id) "shard 0";
  check ~domains:2 [ 5; 2 ] "shard 2";
  check ~domains:2 [ 6 ] "shard 6";
  check ~domains:1 [ 5; 2 ] "shard 2"

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
    QCheck_alcotest.to_alcotest prop_drain_is_sort;
    Alcotest.test_case "cross-shard delivery allocation" `Quick test_cross_shard_alloc;
    Alcotest.test_case "control barrier merges before control events" `Quick
      test_control_barrier_merge_first;
    Alcotest.test_case "peer counters export exactly across flushes" `Quick
      test_counter_export_exact;
    Alcotest.test_case "run A beside B: 8 then 2 stubs" `Quick
      (test_coexisting ~stubs_a:8 ~stubs_b:2);
    Alcotest.test_case "run A beside B: 4 stubs each" `Quick
      (test_coexisting ~stubs_a:4 ~stubs_b:4);
    Alcotest.test_case "raising slice surfaces on the caller" `Quick test_raising_slice;
  ]
