(* Peer-level behavior tests on small deployments: data-management modes,
   tuple windows, query composition, crash recovery, digests, and the
   no-aggregation baseline. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Op = Mortar_core.Op

let deploy ?(seed = 41) ?(hosts = 32) ?offsets () =
  let rng = Mortar_util.Rng.create (seed * 17) in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:6 ~hosts () in
  let d = D.create_sharded ~seed ?offsets topo in
  D.converge_coordinates d ();
  d

let all_nodes hosts = Array.init (hosts - 1) (fun i -> i + 1)

let install d meta =
  let nodes = all_nodes (D.hosts d) in
  let treeset = D.plan d ~bf:4 ~d:4 ~root:0 ~nodes () in
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset)

(* The root's results stamped with the time they were emitted, and the
   ones emitted after a warm-up cutoff. *)
let collect d =
  let results = ref [] in
  Peer.on_result (D.peer d 0) (fun r -> results := (D.now d, r) :: !results);
  results

let after cutoff results =
  List.filter_map (fun (at, r) -> if at > cutoff then Some r else None) !results

let test_timestamp_mode_synced_clocks () =
  (* With perfect clocks, timestamp mode delivers full completeness. *)
  let d = deploy () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"ts" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~mode:Query.Timestamp ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 60.0;
  let steady = after 30.0 results in
  let mean =
    Mortar_util.Stats.mean
      (Array.of_list (List.map (fun (r : Peer.result) -> r.completeness) steady))
  in
  Alcotest.(check bool) (Printf.sprintf "timestamp mode complete (%.2f)" mean) true (mean > 0.95)

let test_avg_operator_in_network () =
  let d = deploy ~seed:43 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"avg" ~source:"vals" ~op:Op.Avg ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  (* Node i reports constant value i: the average of 0..n-1 is (n-1)/2. *)
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"vals" ~period:1.0 (fun _ -> Value.Int i)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 60.0;
  let steady = after 30.0 results in
  let expected = float_of_int (hosts - 1) /. 2.0 in
  List.iter
    (fun (r : Peer.result) ->
      if r.completeness > 0.99 then
        Alcotest.(check (float 0.6)) "global average" expected (Value.to_float r.value))
    steady

let test_min_max_in_network () =
  let d = deploy ~seed:44 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"mx" ~source:"vals" ~op:Op.Max ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"vals" ~period:1.0 (fun _ -> Value.Int i)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 40.0;
  let full =
    List.filter (fun (r : Peer.result) -> r.completeness > 0.99) (after 20.0 results)
  in
  Alcotest.(check bool) "has complete windows" true (full <> []);
  List.iter
    (fun (r : Peer.result) ->
      Alcotest.(check int) "max is n-1" (hosts - 1) (Value.to_int r.value))
    full

let test_sliding_window_overlap () =
  (* range 3s, slide 1s: each window's sum is ~3x the per-slide sum. *)
  let d = deploy ~seed:45 ~hosts:16 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"slide" ~source:"ones" ~op:Op.Sum
      ~window:(Window.time ~range:3.0 ~slide:1.0) ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 40.0;
  let steady =
    List.filter (fun (r : Peer.result) -> r.completeness > 0.99) (after 20.0 results)
  in
  Alcotest.(check bool) "has complete windows" true (steady <> []);
  List.iter
    (fun (r : Peer.result) ->
      let v = Value.to_float r.value in
      Alcotest.(check bool)
        (Printf.sprintf "roughly 3x nodes (%.0f)" v)
        true
        (v >= 2.0 *. float_of_int hosts && v <= 3.5 *. float_of_int hosts))
    steady

let test_tuple_window () =
  (* Tuple windows: last 4 tuples from each source, slide 4. *)
  let d = deploy ~seed:46 ~hosts:8 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"tw" ~source:"ones" ~op:Op.Sum
      ~window:(Window.tuples ~range:4 ~slide:4) ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:0.5 (fun _ -> Value.Int 1)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 40.0;
  Alcotest.(check bool) "tuple-window results" true (!results <> []);
  (* Each source contributes batches of 4 ones. *)
  List.iter
    (fun (r : Peer.result) ->
      let v = Value.to_float r.value in
      Alcotest.(check bool) "multiple of ~4 per contributor" true (v >= 4.0))
    (after 20.0 results)

let test_query_composition () =
  (* A second query (max over 5s) subscribes to the first query's output
     stream at the root. *)
  let d = deploy ~seed:47 ~hosts:16 () in
  let hosts = D.hosts d in
  let inner =
    Query.make_meta ~name:"inner" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  let outer =
    Query.make_meta ~name:"outer" ~source:"inner" ~op:Op.Max ~window:(Window.tumbling 5.0)
      ~root:0 ~total_nodes:1 ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let results = collect d in
  install d inner;
  (* The outer query runs only at the root. *)
  let single = Mortar_overlay.Treeset.random (D.rng d) ~bf:1 ~d:1 ~root:0 ~nodes:[||] in
  D.at d 1.5 (fun () -> Peer.install_query (D.peer d 0) outer single);
  D.run_until d 60.0;
  let outer_results =
    List.filter (fun (r : Peer.result) -> r.query = "outer") (after 30.0 results)
  in
  Alcotest.(check bool) "outer results exist" true (outer_results <> []);
  List.iter
    (fun (r : Peer.result) ->
      let v = Value.to_float r.value in
      Alcotest.(check bool)
        (Printf.sprintf "max of inner sums ~ hosts (%.0f)" v)
        true
        (v >= 0.8 *. float_of_int hosts && v <= 1.2 *. float_of_int hosts))
    outer_results

let test_pre_transform_select () =
  (* Only even-valued nodes pass the select; the sum reflects it. *)
  let d = deploy ~seed:48 ~hosts:16 () in
  let hosts = D.hosts d in
  let pre =
    [
      Mortar_core.Expr.Select
        (Mortar_core.Expr.Cmp
           ( Mortar_core.Expr.Eq,
             Mortar_core.Expr.Binop
               (Mortar_core.Expr.Mod, Mortar_core.Expr.Field "value", Mortar_core.Expr.Const (Value.Int 2)),
             Mortar_core.Expr.Const (Value.Int 0) ))
    ]
  in
  let meta =
    Query.make_meta ~name:"sel" ~source:"vals" ~pre ~op:Op.Count
      ~window:(Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"vals" ~period:1.0 (fun _ -> Value.Int i)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 40.0;
  let full =
    List.filter (fun (r : Peer.result) -> r.completeness > 0.99) (after 20.0 results)
  in
  Alcotest.(check bool) "has complete windows" true (full <> []);
  List.iter
    (fun (r : Peer.result) ->
      Alcotest.(check int) "only even nodes counted" (hosts / 2) (Value.to_int r.value))
    full

let test_crash_recovery () =
  let d = deploy ~seed:49 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"cr" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  install d meta;
  let lost = ref None in
  D.at d 20.0 (fun () ->
      Peer.crash (D.peer d 5);
      lost := Some (Peer.has_query (D.peer d 5) "cr");
      Peer.restart (D.peer d 5));
  D.run_until d 70.0;
  Alcotest.(check (option bool)) "lost at crash instant" (Some false) !lost;
  Alcotest.(check bool) "reconciliation reinstalls" true (Peer.has_query (D.peer d 5) "cr")

let test_digest_agreement () =
  let d = deploy ~seed:50 ~hosts:16 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"dg" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  install d meta;
  D.run_until d 20.0;
  let digests =
    List.init hosts (fun i -> Peer.digest (D.peer d i)) |> List.sort_uniq compare
  in
  Alcotest.(check int) "all digests agree" 1 (List.length digests)

let test_reinstall_supersedes () =
  let d = deploy ~seed:51 ~hosts:16 () in
  let hosts = D.hosts d in
  let nodes = all_nodes hosts in
  let treeset = D.plan d ~bf:4 ~d:2 ~root:0 ~nodes () in
  let v1 =
    Query.make_meta ~name:"q" ~seqno:1 ~source:"ones" ~op:Op.Sum
      ~window:(Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  let v2 = { v1 with Query.seqno = 3; op = Op.Count } in
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) v1 treeset);
  D.at d 10.0 (fun () -> Peer.install_query (D.peer d 0) v2 treeset);
  D.run_until d 25.0;
  for i = 0 to hosts - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "node %d upgraded" i)
      (Some 3)
      (Peer.query_seqno (D.peer d i) "q")
  done

let test_by_index_striping () =
  (* Content-sensitive routing (§4): the same window takes the same tree
     everywhere, and results stay complete. *)
  let d = deploy ~seed:63 ~hosts:32 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"bi" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~striping:Query.By_index ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let results = collect d in
  install d meta;
  D.run_until d 50.0;
  let steady = after 25.0 results in
  let mean =
    Mortar_util.Stats.mean
      (Array.of_list (List.map (fun (r : Peer.result) -> r.completeness) steady))
  in
  (* Single-tree-per-window aggregation has slightly noisier timing than
     round-robin (the netDist estimate mixes tree heights), so the bar is
     a touch lower than the round-robin tests'. *)
  Alcotest.(check bool)
    (Printf.sprintf "by-index striping complete (%.2f)" mean)
    true (mean > 0.85)

let test_type_faults_survive () =
  (* Ill-typed tuples (strings into a sum) are dropped as query faults;
     well-typed tuples keep flowing and the peer never crashes. *)
  let d = deploy ~seed:59 ~hosts:8 () in
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name:"tf" ~source:"mixed" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~total_nodes:hosts ()
  in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"mixed" ~period:0.5 (fun k ->
        if k mod 2 = 0 then Value.Int 1 else Value.Str "oops")
  done;
  let results = collect d in
  install d meta;
  D.run_until d 30.0;
  Alcotest.(check bool) "results despite faults" true (List.length !results > 10);
  let total_faults =
    List.fold_left
      (fun acc i -> acc + Peer.count (D.peer d i) Peer.Type_faults)
      0
      (List.init hosts Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "faults counted (%d)" total_faults)
    true (total_faults > 10)

module Obs = Mortar_obs.Obs

let test_stats_counters () =
  let saved = !Obs.enabled in
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := saved;
      Obs.Reg.clear Obs.default)
    (fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := true;
      let d = deploy ~seed:52 ~hosts:16 () in
      let hosts = D.hosts d in
      let meta =
        Query.make_meta ~name:"st" ~source:"ones" ~op:Op.Sum ~window:(Window.tumbling 1.0)
          ~root:0 ~total_nodes:hosts ()
      in
      for i = 0 to hosts - 1 do
        D.sensor d ~node:i ~stream:"ones" ~period:1.0 (fun _ -> Value.Int 1)
      done;
      install d meta;
      D.run_until d 30.0;
      let root = D.peer d 0 in
      Alcotest.(check bool) "root emitted results" true (Peer.count root Peer.Results > 10);
      Alcotest.(check bool) "root received tuples" true (Peer.count root Peer.Received > 10);
      let leaf = hosts - 1 in
      let leaf_data_sends =
        List.length
          (List.filter
             (function
               | _, Obs.Tuple_send { src; kind = "data"; _ } -> src = leaf
               | _ -> false)
             (Dump.events Obs.default))
      in
      Alcotest.(check bool)
        (Printf.sprintf "leaves sent tuples (%d)" leaf_data_sends)
        true (leaf_data_sends > 10))

(* ------------------------------------------------------------------ *)
(* Host footprint and the flat partner set.                            *)

module Engine = Mortar_sim.Engine
module Partner_set = Mortar_core.Partner_set

(* A peer on a bare engine: no transport, no topology, so the reachable
   words are the peer's own state plus the engine and its queued
   timers. *)
let lone_peer () =
  let e = Engine.create () in
  let rt =
    {
      Peer.send = (fun ~src:_ ~dst:_ ~size:_ ~kind:_ _ -> ());
      local_time = (fun _ -> Engine.now e);
      latency = (fun _ _ -> 0.01);
      set_timer = (fun h ~after f -> Engine.post e ~at:(Engine.now e +. after) f h);
      cancel_timer = Engine.cancel e;
      compile = Op.compile;
    }
  in
  (Peer.create rt ~self:0 ~rng:(Mortar_util.Rng.create 5), e)

(* Upper bounds on reachable words (64-bit, OCaml 5.1). An idle peer
   measures 154 words and a one-instance root after 10 s 739, with the
   runtime shared, no boxed float and the cold tables in one record made
   on first write; with per-host runtime closures, boxed floats and ten
   always-present lazy tables they measured 224 and 843, with
   [option]-wrapped handle records 253 and 901, and with eagerly built
   cold tables, a hashed partner table and closure-wrapped timers 538
   and 1 307. The bounds stay just above the [option]-wrapped figures:
   five eager empty [Hashtbl]s (22 words each) on the idle peer still
   break the first. *)
let idle_peer_words = 256

let one_instance_words = 905

let test_footprint () =
  let p, e = lone_peer () in
  let idle = Obj.reachable_words (Obj.repr p) in
  Alcotest.(check bool)
    (Printf.sprintf "idle peer %d words <= %d" idle idle_peer_words)
    true (idle <= idle_peer_words);
  let rng = Mortar_util.Rng.create 3 in
  let treeset = Mortar_overlay.Treeset.random rng ~bf:2 ~d:2 ~root:0 ~nodes:[| 1; 2; 3; 4 |] in
  let meta =
    Query.make_meta ~name:"fp" ~source:"s" ~op:Op.Sum ~window:(Window.tumbling 1.0) ~root:0
      ~total_nodes:5 ()
  in
  Peer.install_query p meta treeset;
  Engine.run ~until:10.0 e;
  Alcotest.(check (list string)) "installed" [ "fp" ] (Peer.installed p);
  let one = Obj.reachable_words (Obj.repr p) in
  Alcotest.(check bool)
    (Printf.sprintf "one-instance peer %d words <= %d" one one_instance_words)
    true (one <= one_instance_words)

(* The oracle: the partner table as it was before the flat layout — one
   mutable record per partner in an int-keyed hash table, targets and
   sweeps folded and sorted. *)
module Partner_oracle = struct
  type partner = {
    mutable refcount : int;
    mutable last_heard : float;
    mutable last_confirmed : float;
    mutable last_reconcile : float;
  }

  type t = { tbl : (int, partner) Hashtbl.t; timeout : float }

  let create ~timeout = { tbl = Hashtbl.create 32; timeout }

  let partner_of t node ~now =
    match Hashtbl.find_opt t.tbl node with
    | Some p -> p
    | None ->
      let p =
        { refcount = 0; last_heard = now; last_confirmed = neg_infinity;
          last_reconcile = neg_infinity }
      in
      Hashtbl.replace t.tbl node p;
      p

  let retain t node ~now =
    let p = partner_of t node ~now in
    p.refcount <- p.refcount + 1;
    p.last_heard <- now

  let release t node =
    match Hashtbl.find_opt t.tbl node with
    | None -> ()
    | Some p ->
      p.refcount <- p.refcount - 1;
      if p.refcount <= 0 then Hashtbl.remove t.tbl node

  let alive t node ~now =
    match Hashtbl.find_opt t.tbl node with
    | None -> true
    | Some p -> now -. p.last_heard < t.timeout

  let heard t node ~now =
    match Hashtbl.find_opt t.tbl node with
    | Some p ->
      p.last_heard <- now;
      p.last_confirmed <- now
    | None -> ()

  let confirmed_alive t node ~now =
    match Hashtbl.find_opt t.tbl node with
    | None -> false
    | Some p -> now -. p.last_confirmed < t.timeout

  let heartbeat t node ~now =
    heard t node ~now;
    let p = partner_of t node ~now in
    p.last_heard <- now;
    p.last_confirmed <- now

  let reconcile_due t node ~now ~min_gap =
    let p = partner_of t node ~now in
    if now -. p.last_reconcile >= min_gap then begin
      p.last_reconcile <- now;
      true
    end
    else false

  let targets t =
    Hashtbl.fold (fun n p acc -> if p.refcount > 0 then n :: acc else acc) t.tbl []
    |> List.sort compare

  let sweep t ~now ~horizon =
    let stale =
      Hashtbl.fold
        (fun n p acc -> if p.refcount <= 0 && now -. p.last_heard > horizon then n :: acc else acc)
        t.tbl []
      |> List.sort compare
    in
    List.iter (Hashtbl.remove t.tbl) stale;
    List.length stale

  let length t = Hashtbl.length t.tbl
end

type partner_op =
  | Retain of int
  | Release of int
  | Heard of int
  | Heartbeat of int
  | Reconcile of int
  | Sweep

let show_partner_op (dt, op) =
  Printf.sprintf "+%g %s" dt
    (match op with
    | Retain n -> Printf.sprintf "retain %d" n
    | Release n -> Printf.sprintf "release %d" n
    | Heard n -> Printf.sprintf "heard %d" n
    | Heartbeat n -> Printf.sprintf "heartbeat %d" n
    | Reconcile n -> Printf.sprintf "reconcile %d" n
    | Sweep -> "sweep")

let gen_partner_op =
  QCheck.Gen.(
    pair
      (oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0; 6.0; 13.0; 25.0 ])
      (frequency
         [
           (4, map (fun n -> Retain n) (int_bound 11));
           (3, map (fun n -> Release n) (int_bound 11));
           (3, map (fun n -> Heard n) (int_bound 11));
           (3, map (fun n -> Heartbeat n) (int_bound 11));
           (2, map (fun n -> Reconcile n) (int_bound 11));
           (2, return Sweep);
         ]))

(* Peer's constants at the default config: timeout = 3 periods, sweep
   horizon = 4 * 3 periods, reconcile gap = a digest every 3rd period. *)
let prop_partner_set_matches_oracle =
  let period = Peer.default_config.Peer.hb_period in
  let timeout = 3.0 *. period in
  let horizon = 4.0 *. 3.0 *. period in
  let min_gap = 3.0 *. period in
  QCheck.Test.make ~name:"partner set = Hashtbl + record oracle" ~count:400
    QCheck.(
      make ~print:(fun l -> String.concat "; " (List.map show_partner_op l))
        Gen.(list_size (int_bound 80) gen_partner_op))
    (fun ops ->
      let ps = Partner_set.create () and o = Partner_oracle.create ~timeout in
      let now = ref 0.0 in
      List.for_all
        (fun (dt, op) ->
          now := !now +. dt;
          let now = !now in
          let same_result =
            match op with
            | Retain n ->
              Partner_set.retain ps n ~now;
              Partner_oracle.retain o n ~now;
              true
            | Release n ->
              Partner_set.release ps n;
              Partner_oracle.release o n;
              true
            | Heard n ->
              Partner_set.heard ps n ~now;
              Partner_oracle.heard o n ~now;
              true
            | Heartbeat n ->
              Partner_set.heartbeat ps n ~now;
              Partner_oracle.heartbeat o n ~now;
              true
            | Reconcile n ->
              Partner_set.reconcile_due ps n ~now ~min_gap
              = Partner_oracle.reconcile_due o n ~now ~min_gap
            | Sweep ->
              Partner_set.sweep ps ~now ~horizon = Partner_oracle.sweep o ~now ~horizon
          in
          let targets =
            let acc = ref [] in
            Partner_set.iter_targets (fun n -> acc := n :: !acc) ps;
            List.rev !acc
          in
          same_result
          && targets = Partner_oracle.targets o
          && Partner_set.length ps = Partner_oracle.length o
          && List.for_all
               (fun n ->
                 Partner_set.alive ps n ~now ~timeout = Partner_oracle.alive o n ~now
                 && Partner_set.confirmed_alive ps n ~now ~timeout
                    = Partner_oracle.confirmed_alive o n ~now)
               (List.init 13 Fun.id))
        ops)

let tests =
  [
    Alcotest.test_case "timestamp mode, synced clocks" `Slow test_timestamp_mode_synced_clocks;
    Alcotest.test_case "avg in network" `Slow test_avg_operator_in_network;
    Alcotest.test_case "max in network" `Slow test_min_max_in_network;
    Alcotest.test_case "sliding window overlap" `Slow test_sliding_window_overlap;
    Alcotest.test_case "tuple window" `Slow test_tuple_window;
    Alcotest.test_case "query composition" `Slow test_query_composition;
    Alcotest.test_case "pre-transform select" `Slow test_pre_transform_select;
    Alcotest.test_case "crash recovery" `Slow test_crash_recovery;
    Alcotest.test_case "digest agreement" `Quick test_digest_agreement;
    Alcotest.test_case "reinstall supersedes" `Quick test_reinstall_supersedes;
    Alcotest.test_case "by-index striping" `Slow test_by_index_striping;
    Alcotest.test_case "type faults survive" `Quick test_type_faults_survive;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "host footprint" `Quick test_footprint;
    QCheck_alcotest.to_alcotest prop_partner_set_matches_oracle;
  ]
