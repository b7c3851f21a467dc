(* The benchmark harness. Three modes, all in this executable:

   - `--micro` (the default): Bechamel micro-benchmarks, one per figure
     of the paper's evaluation, timing the computational kernel that the
     figure's experiment stresses (tree planning for Fig 17, TS-list
     merging for Figs 9/10, the routing decision for Fig 12, ...), plus
     the simulator's own per-event kernels (the engine queue at depth,
     the cross-shard batch merge).

   - `--smoke`: run every micro kernel once, untimed (`dune runtest`).

   - `--scale`: a short fig14-style aggregation round per host count of
     a ladder (240/680 with `--quick`, else 680/2000/10000/100000;
     `--hosts N,N,..` picks the rungs), the one tool for the 100k-1M
     rungs that perfbench/ does not reach. `--domains N` sets the domain
     count. Each rung is one JSON line in `--out` (default
     `results/BENCH_SCALE.jsonl`), shaped as a `results/BENCH.jsonl` row
     minus `"pr"`: adding `"pr"` is all it takes to append it there.

   - `--census`: live words per host by part of the state (peer rows,
     shard batches, transport, engines, ...) at the end of a steady
     interval of seed 100, for the benchmark's agg and mlq shapes
     (`--quick` for their tiny sizes).

   `--history FILE` checks the rows of an append-only history such as
   `results/BENCH.jsonl`. It runs before any mode, and without a mode
   flag it is the whole run. The figure tables come from
   `mortar_cli experiments`, not from here.

   Usage:
     dune exec bench/main.exe [-- --micro]
     dune exec bench/main.exe -- --smoke
     dune exec bench/main.exe -- --history FILE
     dune exec bench/main.exe -- --scale [--quick] [--domains N] [--hosts N,N,..]
                                         [--out FILE.jsonl] [--history FILE]
     dune exec bench/main.exe -- --census [--quick] [--domains N]
*)


open Bechamel
open Toolkit

module Rng = Mortar_util.Rng
module Obs_json = Mortar_obs.Obs_json

(* ------------------------------------------------------------------ *)
(* Kernel fixtures, built once. *)

let fixture_trees =
  lazy
    (let rng = Rng.create 1 in
     let nodes = Array.init 999 (fun i -> i + 1) in
     Array.init 4 (fun _ -> Mortar_overlay.Builder.random_tree rng ~bf:32 ~root:0 ~nodes))

let fixture_coords =
  lazy
    (let rng = Rng.create 2 in
     Array.init 179 (fun _ ->
         [| Rng.uniform rng 0.0 0.1; Rng.uniform rng 0.0 0.1; Rng.uniform rng 0.0 0.1 |]))

let fixture_treeset =
  lazy
    (let rng = Rng.create 3 in
     let nodes = Array.init 679 (fun i -> i + 1) in
     Mortar_overlay.Treeset.random rng ~bf:16 ~d:4 ~root:0 ~nodes)

let fixture_view = lazy (Mortar_core.Query.view_of_treeset (Lazy.force fixture_treeset) 77)

let fixture_routing_state =
  lazy
    (let st =
       Mortar_dht.Routing_state.create ~self:(Mortar_dht.Node_id.hash_host 0) ~leaf_radius:8
     in
     for h = 1 to 679 do
       Mortar_dht.Routing_state.add st (Mortar_dht.Node_id.hash_host h)
     done;
     st)

let fixture_frames =
  lazy
    (let rng = Rng.create 4 in
     List.init 40 (fun i ->
         Mortar_core.Value.Record
           [
             ("x", Mortar_core.Value.Float (float_of_int i));
             ("y", Mortar_core.Value.Float (float_of_int (i * 2)));
             ("rssi", Mortar_core.Value.Float (-40.0 -. Rng.float rng 50.0));
           ]))

let fixture_msl =
  {|
loud = select(stream("frames"), mac == "target" && rssi > -90.0)
top3 = topk(loud, k=3, key="rssi") window time 1s 1s
agg  = sum(stream("cpu")) window time 5s 1s mode syncless
|}

(* Two packed sketch partials of the shape an mlq stub merges: b=11
   HLL over ~300 hosts each (sparse), 4x32 Count-Min over enough keys to
   be dense. *)
let fixture_sketch_partials make =
  lazy
    (let rng = Rng.create 8 in
     let part () = make (List.init 300 (fun _ -> Rng.int rng 1_000_000)) in
     let a = part () in
     (a, part ()))

let fixture_hll =
  fixture_sketch_partials (fun keys ->
      let t = Mortar_sketch.Hll.create ~b:11 ~seed:5 in
      List.iter (fun key -> Mortar_sketch.Hll.add t ~key) keys;
      Mortar_sketch.Hll.to_string t)

let fixture_cm =
  fixture_sketch_partials (fun keys ->
      let t = Mortar_sketch.Count_min.create ~depth:4 ~width:32 ~seed:5 in
      List.iter (fun key -> Mortar_sketch.Count_min.add t ~key ~w:1) keys;
      Mortar_sketch.Count_min.to_string t)

(* ------------------------------------------------------------------ *)
(* One kernel per figure. *)

let bench_fig01_connectivity_trial () =
  let trees = Lazy.force fixture_trees in
  let rng = Rng.create 99 in
  Staged.stage (fun () ->
      ignore
        (Mortar_overlay.Connectivity.completeness rng ~trees ~link_failure:0.2
           (Mortar_overlay.Connectivity.Dynamic_striping 4)))

let bench_fig09_ts_list_round () =
  let op = Mortar_core.Op.compile Mortar_core.Op.Sum in
  Staged.stage (fun () ->
      (* The syncless data path: 64 summary inserts into exact-match slots
         followed by eviction — one window's work at a bf-64 node. *)
      let ts = Mortar_core.Ts_list.create ~op () in
      for i = 0 to 63 do
        let index = Mortar_core.Index.of_slot ~slide:1.0 (i mod 4) in
        Mortar_core.Ts_list.insert ts ~now:0.0 ~deadline:1.0
          (Mortar_core.Summary.make ~index ~value:(Mortar_core.Value.Float 1.0) ~count:1 ())
      done;
      ignore (Mortar_core.Ts_list.force_pop ts ~now:2.0))

let bench_fig10_syncless_reindex () =
  Staged.stage (fun () ->
      (* Fig 7's arrival rule: index = (t_ref - age) / slide. *)
      let acc = ref 0 in
      for i = 0 to 999 do
        acc := !acc + Mortar_core.Index.slot ~slide:5.0 (1000.0 -. (float_of_int i *. 0.37))
      done;
      ignore !acc)

let bench_fig11_chunk_plan () =
  let ts = Lazy.force fixture_treeset in
  Staged.stage (fun () -> ignore (Mortar_core.Query.chunk_plan ts ~chunks:16))

let bench_fig12_routing_decision () =
  let view = Lazy.force fixture_view in
  let rng = Rng.create 5 in
  let visited = Mortar_core.Routing.initial_visited view in
  Staged.stage (fun () ->
      ignore
        (Mortar_core.Routing.route ~view
           ~alive:(fun n -> n mod 7 <> 0)
           ~rng ~visited ~arrival_tree:0 ~ttl_down:0 ()))

let bench_fig13_unique_children () =
  let ts = Lazy.force fixture_treeset in
  Staged.stage (fun () -> ignore (Mortar_overlay.Treeset.unique_children ts 17))

let bench_fig14_merge_fold () =
  let op = Mortar_core.Op.compile Mortar_core.Op.Sum in
  Staged.stage (fun () ->
      (* Merging one window's 680 partials at the root. *)
      let acc = ref op.Mortar_core.Op.init in
      for _ = 1 to 680 do
        acc := op.Mortar_core.Op.merge !acc (Mortar_core.Value.Float 1.0)
      done;
      ignore (op.Mortar_core.Op.finalize !acc))

let bench_fig15_engine_round () =
  Staged.stage (fun () ->
      let e = Mortar_sim.Engine.create () in
      for i = 1 to 100 do
        ignore (Mortar_sim.Engine.post e ~at:(float_of_int i *. 0.001) ignore i)
      done;
      Mortar_sim.Engine.run e)

(* The engine at a realistic depth: ~2k pending events (a 10k-host
   shard's timers and in-flight messages). One run posts an event and
   cancels it, posts another, and pops until one fires, so the depth
   holds steady while every queue operation is exercised. *)
let bench_engine_depth () =
  let e = Mortar_sim.Engine.create () in
  let k = ref 0 in
  let delay () =
    incr k;
    float_of_int (!k * 7919 mod 2000) *. 0.001
  in
  let post () =
    Mortar_sim.Engine.post e ~at:(Mortar_sim.Engine.now e +. delay ()) ignore 0
  in
  for _ = 1 to 2000 do
    ignore (post ())
  done;
  Staged.stage (fun () ->
      Mortar_sim.Engine.cancel e (post ());
      ignore (post ());
      ignore (Mortar_sim.Engine.step e))

(* One epoch's cross-shard merge at agg-10k's shard count: every one of
   34 sources posts two messages to each of 34 destinations, then every
   destination drains its batches in canonical order. *)
let bench_shard_drain () =
  let n = 34 in
  let b = Mortar_sim.Shard.create ~shards:n in
  let count = ref 0 in
  let sink _ _ = incr count in
  Staged.stage (fun () ->
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          for j = 0 to 1 do
            Mortar_sim.Shard.post b ~src_shard:src ~dst_shard:dst
              ~time:(float_of_int ((src * 31) + (dst * 7) + j) *. 1e-4)
              ~src ~dst ~kind:"data" j
          done
        done
      done;
      Mortar_sim.Shard.flip b;
      for dst = 0 to n - 1 do
        Mortar_sim.Shard.drain b ~dst_shard:dst sink
      done)

let bench_fig16_dht_next_hop () =
  let st = Lazy.force fixture_routing_state in
  let key = Mortar_dht.Node_id.hash_name "peer-count" in
  Staged.stage (fun () -> ignore (Mortar_dht.Routing_state.next_hop st key))

let bench_fig17_plan_primary () =
  let coords = Lazy.force fixture_coords in
  let rng = Rng.create 6 in
  let nodes = Array.init 178 (fun i -> i + 1) in
  Staged.stage (fun () ->
      ignore (Mortar_overlay.Builder.plan_primary rng ~coords ~bf:16 ~root:0 ~nodes))

let bench_fig17_sibling_shuffle () =
  let coords = Lazy.force fixture_coords in
  let rng = Rng.create 7 in
  let nodes = Array.init 178 (fun i -> i + 1) in
  let primary = Mortar_overlay.Builder.plan_primary rng ~coords ~bf:16 ~root:0 ~nodes in
  Staged.stage (fun () ->
      ignore (Mortar_overlay.Sibling.derive_cluster_shuffle rng ~bf:16 primary))

let bench_fig18_trilat () =
  Mortar_wifi.Wifi.register_trilat ();
  let impl = Mortar_core.Op.compile (Mortar_core.Op.Custom { name = "trilat"; args = [] }) in
  let frames = Lazy.force fixture_frames in
  Staged.stage (fun () ->
      let acc =
        List.fold_left
          (fun acc f -> impl.Mortar_core.Op.merge acc (impl.Mortar_core.Op.lift f))
          impl.Mortar_core.Op.init frames
      in
      ignore (impl.Mortar_core.Op.finalize acc))

let bench_msl_parse () =
  Staged.stage (fun () -> ignore (Mortar_core.Msl.parse fixture_msl))

let bench_sketch_merge merge fixture () =
  let a, b = Lazy.force fixture in
  Staged.stage (fun () -> ignore (merge a b))

let kernels =
  [
    ("fig01:connectivity-trial", bench_fig01_connectivity_trial ());
    ("fig09:ts-list-window-round", bench_fig09_ts_list_round ());
    ("fig10:syncless-reindex-x1000", bench_fig10_syncless_reindex ());
    ("fig11:chunk-plan-680", bench_fig11_chunk_plan ());
    ("fig12:routing-decision", bench_fig12_routing_decision ());
    ("fig13:unique-children", bench_fig13_unique_children ());
    ("fig14:merge-fold-680", bench_fig14_merge_fold ());
    ("fig15:engine-100-events", bench_fig15_engine_round ());
    ("engine:schedule-cancel-pop-2k", bench_engine_depth ());
    ("shard:drain-34x34", bench_shard_drain ());
    ("fig16:dht-next-hop", bench_fig16_dht_next_hop ());
    ("fig17:plan-primary-179", bench_fig17_plan_primary ());
    ("fig17:sibling-shuffle-179", bench_fig17_sibling_shuffle ());
    ("fig18:trilat-40-frames", bench_fig18_trilat ());
    ("msl:parse-3-statements", bench_msl_parse ());
    ("sketch:hll-merge-sparse", bench_sketch_merge Mortar_sketch.Hll.merge_packed fixture_hll ());
    ("sketch:cm-merge-dense", bench_sketch_merge Mortar_sketch.Count_min.merge_packed fixture_cm ());
  ]

let tests = List.map (fun (name, staged) -> Test.make ~name staged) kernels

(* Smoke mode (`dune runtest`): execute every kernel once, without
   Bechamel's timing loop, so a broken fixture or kernel fails CI in
   milliseconds rather than only under `dune exec bench/main.exe`. *)
let run_smoke () =
  List.iter
    (fun (name, staged) ->
      Staged.unstage staged ();
      Printf.printf "smoke ok %s\n%!" name)
    kernels

let run_micro () =
  print_endline "=== micro-benchmarks (ns per kernel run) ===";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "%-32s %14.1f ns\n%!" name ns
          | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
        analysis)
    tests


(* ------------------------------------------------------------------ *)
(* The one row checker, for `--history` and for `--scale`'s output read
   back from disk: every non-blank line of [path] must parse as JSON and
   carry each of [keys] as a member, where "a.b" names member [b] of
   member [a]. A bad row prints "<path> row <n> <what>" on stderr and
   exits 1. Returns the number of rows. *)

let check_rows path keys =
  let bad row what =
    Printf.eprintf "%s row %d %s\n" path row what;
    exit 1
  in
  let has j key =
    List.fold_left
      (fun j k -> Option.bind j (Obs_json.member k))
      (Some j) (String.split_on_char '.' key)
    |> Option.is_some
  in
  let ic = open_in path in
  let rows = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr rows;
         match Obs_json.parse line with
         | Error e -> bad !rows ("invalid JSON " ^ e)
         | Ok j ->
           List.iter (fun key -> if not (has j key) then bad !rows ("missing key " ^ key)) keys
       end
     done
   with End_of_file -> ());
  close_in ic;
  !rows

(* ------------------------------------------------------------------ *)
(* --scale: wall-clock cost of the aggregation round at paper scale and
   beyond. Timings go through Bench_clock (the one wall-clock module the
   D1 lint allow-lists). *)

module Scale = struct
  module Topology = Mortar_net.Topology
  module D = Mortar_emul.Deployment
  module Score = Mortar_experiments.Score

  let time f =
    let t0 = Bench_clock.now () in
    let v = f () in
    (v, Bench_clock.now () -. t0)

  (* A short fig14-style aggregation round: every host feeds a 1 Hz
     sensor into a syncless sum over tumbling 1 s windows, aggregated
     up a random bf-32 treeset to host 0. Reports wall time and the
     completeness of the recorded windows — the 10000-host round
     completing (with near-full completeness) is the tentpole's
     acceptance gate. *)
  let bench_agg_round ~seed ~hosts ~domains ~virtual_s =
    let rng = Rng.create (seed * 7919) in
    let topo = Topology.transit_stub rng ~hosts () in
    let d = D.create_sharded ~seed ~domains topo in
    let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
    let treeset = D.plan_random d ~bf:32 ~root:0 ~nodes () in
    let meta =
      Mortar_core.Query.make_meta ~name:"scale-count" ~source:"ones"
        ~op:Mortar_core.Op.Sum ~window:(Mortar_core.Window.tumbling 1.0)
        ~mode:Mortar_core.Query.Syncless ~root:0 ~degree:4 ~total_nodes:hosts
        ~aggregate:true ()
    in
    for i = 0 to hosts - 1 do
      D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Mortar_core.Value.Int 1)
    done;
    let results = ref 0 in
    let score = Score.create () in
    Mortar_core.Peer.on_result (D.peer d 0) (fun (r : Mortar_core.Peer.result) ->
        incr results;
        ignore (Score.offer score ~at:(D.now d) ~slot:r.slot r.count));
    D.at d 1.0 (fun () -> Mortar_core.Peer.install_query (D.peer d 0) meta treeset);
    (* Collect the other layers' garbage before timing, so the round
       measures the engine rather than inherited major-heap debt. *)
    Gc.full_major ();
    let (), wall = time (fun () -> D.run_until d virtual_s) in
    (* Completeness per window slot, not per emission: a straggler tuple
       landing after its window was evicted re-opens the window, and the
       root emits that slot a second time carrying only the late counts —
       a window's completeness is the best emission it ever got. Steady
       state is keyed on a slot's *first* emission: the early windows
       close while the chunked install is still propagating down the
       trees (at 100k hosts the bf-32 union trees are a level deeper and
       the last leaves install about a window later, so the threshold is
       correspondingly later). *)
    let warmup = if hosts >= 50_000 then 7.0 else 5.0 in
    let steady =
      List.filter
        (fun slot ->
          match Score.first_at score slot with Some at -> at >= warmup | None -> false)
        (Score.slots score)
    in
    let completeness =
      match steady with [] -> 0.0 | _ -> Score.mean (Score.best score) ~denom:hosts steady
    in
    (d, wall, !results, completeness)

  let seed = 42

  (* `git rev-parse --short=12 HEAD`, or "unknown" where that fails, as
     perfbench/run.py records it. *)
  let git_rev () =
    match Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
      let rev = try String.trim (input_line ic) with End_of_file -> "" in
      match (Unix.close_process_in ic, rev) with
      | Unix.WEXITED 0, rev when rev <> "" -> rev
      | _ -> "unknown")

  (* Every key a fresh row carries, checked when the file is read back. *)
  let row_keys =
    [ "bench"; "quick"; "hosts"; "routers"; "domains"; "shards"; "agg_round.virtual_s";
      "agg_round.wall_s"; "agg_round.results"; "agg_round.completeness"; "heap_kb_per_host";
      "seed"; "nproc"; "ocaml"; "git_rev" ]

  (* One rung as a BENCH.jsonl row minus "pr", with perfbench's metadata:
     [domains] is the execution width (`--domains`), [shards] the
     deployment's logical stub shards. [heap_kb_per_host] is the process's
     peak major heap so far over this rung's hosts: exact on an ascending
     ladder (the default), an upper bound for a rung after a larger one. *)
  let row ~quick ~domains ~nproc ~rev hosts =
    let virtual_s = if quick then 6.0 else 12.0 in
    let d, wall_s, results, completeness = bench_agg_round ~seed ~hosts ~domains ~virtual_s in
    let routers = Topology.routers (D.topology d) and shards = D.shard_count d in
    let heap_kb_per_host =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1024.0 /. float_of_int hosts
    in
    Printf.printf
      "%6d hosts (%d routers, %d shards): agg %.1fvs in %.2fs wall (%d results, %.1f%% \
       complete, %.1f KiB/host)\n\
       %!"
      hosts routers shards virtual_s wall_s results (100.0 *. completeness) heap_kb_per_host;
    Printf.sprintf
      "{\"bench\": \"scale\", \"quick\": %b, \"hosts\": %d, \"routers\": %d, \"domains\": %d, \
       \"shards\": %d, \"agg_round\": {\"virtual_s\": %.1f, \"wall_s\": %.3f, \"results\": %d, \
       \"completeness\": %.4f}, \"heap_kb_per_host\": %.1f, \"seed\": %d, \"nproc\": %d, \
       \"ocaml\": %S, \"git_rev\": %S}"
      quick hosts routers domains shards virtual_s wall_s results completeness heap_kb_per_host
      seed nproc Sys.ocaml_version rev

  let run ~quick ~domains ~hosts ~out =
    (* The agg rounds allocate short-lived events and summaries at a high
       rate; a roomier minor heap and a lazier major GC cut wall time
       noticeably at the 10k/100k points without affecting results. *)
    Gc.set { (Gc.get ()) with minor_heap_size = 1 lsl 20; space_overhead = 200 };
    let host_counts =
      match hosts with
      | Some hs -> hs
      | None -> if quick then [ 240; 680 ] else [ 680; 2000; 10_000; 100_000 ]
    in
    Printf.printf "=== scale bench (%s, %d domains): aggregation round ===\n%!"
      (if quick then "quick" else "full")
      domains;
    (match Filename.dirname out with
    | "." | "" -> ()
    | dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755);
    let nproc = Mortar_par.Par.recommended_domains () and rev = git_rev () in
    let oc = open_out out in
    List.iter
      (fun hosts ->
        output_string oc (row ~quick ~domains ~nproc ~rev hosts);
        output_char oc '\n';
        flush oc)
      host_counts;
    close_out oc;
    (* Read back and check: CI treats an unreadable results file as a
       failure, not just a curiosity. *)
    Printf.printf "wrote %s (%d rows ok)\n%!" out (check_rows out row_keys)
end

(* ------------------------------------------------------------------ *)
(* --census: live words per host by part of the state, at the end of a
   steady interval, for the two shapes of the repo's benchmark: one sum
   over random bf-32 trees (agg) and 200 stub-local sum, Count-Min and
   HLL queries planned by the registry (mlq). Each shape follows
   perfbench/main.ml's recipe for the same seed; `--quick` takes its
   tiny sizes. *)

module Census = struct
  module Topology = Mortar_net.Topology
  module D = Mortar_emul.Deployment
  module Op = Mortar_core.Op
  module Value = Mortar_core.Value
  module Spec = Mortar_plan.Spec
  module Registry = Mortar_plan.Registry

  let agg ~quick ~seed ~domains =
    let hosts, transits, stubs = if quick then (300, 4, 8) else (10_000, 8, 34) in
    let topo = Topology.transit_stub (Rng.create ((seed * 7919) + 1)) ~transits ~stubs ~hosts () in
    let d = D.create_sharded ~seed ~domains topo in
    let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
    let treeset = D.plan_random d ~bf:32 ~d:4 ~root:0 ~nodes () in
    let meta =
      Mortar_core.Query.make_meta ~name:"agg" ~source:"cpu" ~op:Op.Sum
        ~window:(Mortar_core.Window.tumbling 1.0) ~mode:Mortar_core.Query.Syncless ~root:0
        ~degree:(Mortar_overlay.Treeset.degree treeset) ~total_nodes:hosts ()
    in
    for h = 0 to hosts - 1 do
      D.sensor d ~node:h ~stream:"cpu" ~period:1.0 (fun _ -> Value.Int 1)
    done;
    D.at d 1.0 (fun () -> Mortar_core.Peer.install_query (D.peer d 0) meta treeset);
    (d, 18.0)

  (* perfbench's mlq specs: Zipf(1) shares of the queries over (stub,
     stream) combos, largest remainder first. *)
  let streams = [| "cpu"; "mem"; "net" |]

  let op_of_stream ~sk_seed = function
    | "cpu" -> Op.Sum
    | "mem" -> Op.Sketch_count_min { depth = 4; width = 32; seed = sk_seed }
    | _ -> Op.Sketch_hll { b = 11; seed = sk_seed }

  let sensor_value ~seed stream h k =
    match stream with
    | "cpu" -> Value.Int 1
    | "mem" -> Value.Int (Mortar_sketch.Hash.hash_int ~seed:(seed + h) k land 63)
    | _ -> Value.Int ((seed * 1_000_003) + h)

  let specs rng topo ~queries ~stubs ~sk_seed =
    let by_stub = Array.make stubs [] in
    for h = Topology.hosts topo - 1 downto 0 do
      let s = Topology.stub_of topo h in
      by_stub.(s) <- h :: by_stub.(s)
    done;
    let ranked =
      Array.of_list (List.filter (fun s -> by_stub.(s) <> []) (List.init stubs Fun.id))
    in
    Rng.shuffle rng ranked;
    let n = Array.length ranked * Array.length streams in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. (1.0 /. float_of_int (i + 1))
    done;
    let share i = float_of_int queries /. float_of_int (i + 1) /. !total in
    let counts = Array.init n (fun i -> int_of_float (share i)) in
    let missing = queries - Array.fold_left ( + ) 0 counts in
    List.init n (fun i -> (share i -. float_of_int counts.(i), i))
    |> List.sort (fun (a, i) (b, j) -> if a = b then compare i j else compare b a)
    |> List.iteri (fun k (_, i) -> if k < missing then counts.(i) <- counts.(i) + 1);
    let next = ref 0 in
    List.concat
      (List.init n (fun i ->
           let stream = streams.(i mod Array.length streams) in
           let publishers = Array.of_list by_stub.(ranked.(i / Array.length streams)) in
           List.init counts.(i) (fun _ ->
               let name = Printf.sprintf "q%03d" !next in
               incr next;
               Spec.make ~name ~source:stream ~op:(op_of_stream ~sk_seed stream) ~window:1.0
                 ~publishers ~subscriber:publishers.(Rng.int rng (Array.length publishers)))))

  let mlq ~quick ~seed ~domains =
    let hosts, transits, stubs, nq = if quick then (400, 4, 8, 12) else (10_000, 8, 34, 200) in
    let rng = Rng.create ((seed * 7919) + 2) in
    let topo = Topology.transit_stub rng ~transits ~stubs ~hosts () in
    let sk_seed = 1 + (seed land 0xffff) in
    let specs = specs (Rng.split rng) topo ~queries:nq ~stubs ~sk_seed in
    let d = D.create_sharded ~seed ~domains topo in
    D.converge_coordinates d ();
    let ctx =
      Mortar_plan.Place.ctx ~topo ~coords:(D.coordinates d) ~bf:16 ~degree:2 ~candidates:3 ~seed ()
    in
    let actions = Registry.add_batch (Registry.create ~ctx ()) specs in
    let feeds = Hashtbl.create 4096 in
    List.iter
      (fun (s : Spec.t) -> Array.iter (fun h -> Hashtbl.replace feeds (s.source, h) ()) s.publishers)
      specs;
    Hashtbl.fold (fun k () acc -> k :: acc) feeds []
    |> List.sort compare
    |> List.iter (fun (stream, h) ->
           D.sensor d ~node:h ~stream ~period:1.0 (sensor_value ~seed stream h));
    let n = List.length actions in
    List.iteri
      (fun i a ->
        match a with
        | Registry.Install { phys; root; meta; treeset; subscribers } ->
          D.at d (1.0 +. (2.0 *. float_of_int i /. float_of_int (max 1 n))) (fun () ->
              Mortar_core.Peer.install_query (D.peer d root) meta treeset;
              Mortar_core.Peer.set_result_forwards (D.peer d root) ~query:phys subscribers)
        | Registry.Update_fanout _ | Registry.Remove _ | Registry.Replan _ ->
          failwith "census mlq: unexpected registry action on a fresh batch")
      actions;
    (d, 14.0)

  let seed = 100

  let run ~quick ~domains =
    List.iter
      (fun (shape, build) ->
        let d, until = build ~quick ~seed ~domains in
        D.run_until d until;
        let rows = D.census d in
        let hosts = float_of_int (D.hosts d) in
        let live = float_of_int (Gc.stat ()).Gc.live_words in
        let per w = float_of_int w /. hosts in
        Printf.printf "=== census %s-%s, seed %d, %.0f vs, %d hosts (words per host) ===\n" shape
          (if quick then "tiny" else "10k") seed until (D.hosts d);
        let peer_labels = List.map fst (Mortar_core.Peer.census_parts (D.peer d 0)) in
        let peer_floats = ref 0 and deployment = ref 0 in
        List.iter
          (fun (r : Mortar_util.Census.row) ->
            Printf.printf "%-46s %8.1f\n" r.label (per r.words);
            deployment := !deployment + r.words;
            if List.mem r.label peer_labels then
              peer_floats := !peer_floats + r.boxed_float_words)
          rows;
        Printf.printf "%-46s %8.1f\n" "outside the deployment" (live /. hosts -. per !deployment);
        Printf.printf "%-46s %8.1f\n" "total live (Gc.stat live words)" (live /. hosts);
        Printf.printf "%-46s %8.1f\n%!" "boxed floats in peer state" (per !peer_floats))
      [ ("agg", agg); ("mlq", mlq) ]
end

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let arg_opt flag =
    let rec find = function
      | a :: b :: _ when a = flag -> Some b
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (* --metrics-out / --trace-out: run whatever mode was selected with the
     observability registry on, and dump it afterwards. Off by default so
     the timing modes measure the disabled-instrumentation cost. *)
  let module Obs = Mortar_obs.Obs in
  let metrics_out = arg_opt "--metrics-out" in
  let trace_out = arg_opt "--trace-out" in
  if metrics_out <> None || trace_out <> None then begin
    Obs.enabled := true;
    Obs.Reg.clear Obs.default
  end;
  (* --history FILE: check the append-only benchmark history
     (results/BENCH.jsonl) for the keys downstream tooling groups by.
     Runs before any mode; without a mode flag it is the whole run. *)
  let history = arg_opt "--history" in
  Option.iter
    (fun path ->
      let rows = check_rows path [ "pr"; "bench"; "hosts" ] in
      Printf.printf "history %s: %d rows ok\n%!" path rows)
    history;
  let domains = max 1 (int_of_string (Option.value (arg_opt "--domains") ~default:"1")) in
  if has "--smoke" then run_smoke ()
  else if has "--census" then Census.run ~quick:(has "--quick") ~domains
  else if has "--scale" then
    (* --hosts 680,10000 overrides the built-in host-count ladder. *)
    let hosts =
      Option.map
        (fun s -> List.map int_of_string (String.split_on_char ',' s))
        (arg_opt "--hosts")
    in
    Scale.run ~quick:(has "--quick") ~domains ~hosts
      ~out:(Option.value (arg_opt "--out") ~default:"results/BENCH_SCALE.jsonl")
  else if has "--micro" || history = None then run_micro ();
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.metrics_lines Obs.default)) metrics_out;
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.trace_lines Obs.default)) trace_out
