(* Ablations of the design choices DESIGN.md calls out. These are not in
   the paper; they quantify the decisions this reproduction had to make
   (or fix) to match the paper's numbers.

   - ablation:siblings — rotation-derived vs cluster-shuffled sibling
     trees under node failures. Rotations degenerate on skewed full trees
     (most bottom-level internal positions have one or two children), so
     many nodes repeat the same parent across trees; seed-dependently this
     cuts whole pockets out of the union graph and costs live completeness.
   - ablation:guard — the quiescence extension on TS-list deadlines. With
     it off (guard = 0), eviction rests solely on the paper's
     first-arrival timeout, and completeness decays as waits mis-estimate.
     The table has one column per mode. Syncless reads 100 % at every
     guard: the root's window-end horizon (DESIGN.md finding 4) covers
     the drain the extension rescues. Timestamp mode has no such horizon,
     so its column shows what the guard buys.
   - ablation:ladder — headroom-scaled eviction caps. A flat cap makes
     every level race the root's deadline. *)

module D = Mortar_emul.Deployment
module Treeset = Mortar_overlay.Treeset
module Sibling = Mortar_overlay.Sibling
module Connectivity = Mortar_overlay.Connectivity
module Peer = Mortar_core.Peer

(* ------------------------------------------------------------------ *)
(* Sibling derivation: union-graph bound under node failures. *)

let sibling_bound ~style ~seed ~hosts ~bf ~d ~failure =
  let rng = Mortar_util.Rng.create seed in
  let coords =
    Array.init hosts (fun _ ->
        [|
          Mortar_util.Rng.uniform rng 0.0 0.1;
          Mortar_util.Rng.uniform rng 0.0 0.1;
          Mortar_util.Rng.uniform rng 0.0 0.1;
        |])
  in
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let ts = Treeset.plan ~style rng ~coords ~bf ~d ~root:0 ~nodes in
  let dead = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      if n <> 0 && Mortar_util.Rng.float rng 1.0 < failure then Hashtbl.replace dead n ())
    (Treeset.nodes ts);
  let live = hosts - Hashtbl.length dead in
  let reachable =
    Connectivity.union_reachable (Treeset.trees ts) ~dead:(Hashtbl.mem dead)
  in
  float_of_int (List.length reachable) /. float_of_int live

let live_completeness ~quick ~style ~failure =
  (* End-to-end: the routing pockets that degenerate siblings create cost
     far more than the raw union bound suggests. *)
  let hosts = if quick then 340 else 680 in
  let h = Harness.create ~seed:9 ~hosts ~style () in
  Harness.run_until h 20.0;
  ignore (Harness.fail_fraction h failure);
  Harness.run_until h 90.0;
  Harness.mean_completeness h 60.0 90.0 ~denominator:(Harness.live_hosts h)

let run_siblings ~quick =
  let hosts = if quick then 340 else 680 in
  let trials = if quick then 5 else 10 in
  Printf.printf "union-graph bound (averaged over %d plans):
" trials;
  Common.table ~columns:[ "failed"; "rotation"; "cluster-shuffle" ] (fun () ->
      List.map
        (fun failure ->
          let mean style =
            let samples =
              Array.init trials (fun k ->
                  sibling_bound ~style ~seed:(100 + k) ~hosts ~bf:16 ~d:4 ~failure)
            in
            Mortar_util.Stats.mean samples
          in
          [
            Printf.sprintf "%.0f%%" (100.0 *. failure);
            Common.cell_pct (mean `Rotation);
            Common.cell_pct (mean `Cluster_shuffle);
          ])
        [ 0.1; 0.2; 0.3; 0.4 ]);
  Printf.printf "
live completeness of surviving nodes at 20%% failures:
";
  Common.table ~columns:[ "derivation"; "completeness" ] (fun () ->
      [
        [ "rotation"; Common.cell_pct (live_completeness ~quick ~style:`Rotation ~failure:0.2) ];
        [
          "cluster-shuffle";
          Common.cell_pct (live_completeness ~quick ~style:`Cluster_shuffle ~failure:0.2);
        ];
      ])

(* ------------------------------------------------------------------ *)
(* Eviction-policy ablations on the live system. *)

let completeness_with_config ?mode ~quick ~config () =
  (* Deep trees (bf 4) make the timing ablations visible: with bf 16 the
     trees are two levels tall and almost any policy keeps up. *)
  let hosts = if quick then 180 else 400 in
  let h = Harness.create ~seed:77 ~hosts ~bf:4 ?mode ~config () in
  Harness.run_until h 60.0;
  Harness.mean_completeness h 30.0 60.0 ~denominator:hosts

let run_guard ~quick =
  Common.table ~columns:[ "quiet-guard(s)"; "syncless"; "timestamp" ] (fun () ->
      List.map
        (fun guard ->
          let config = { Peer.default_config with Peer.quiet_guard = guard } in
          let pct mode = Common.cell_pct (completeness_with_config ~mode ~quick ~config ()) in
          [ Common.cell_f guard; pct Mortar_core.Query.Syncless; pct Mortar_core.Query.Timestamp ])
        [ 0.0; 0.2; 0.6; 1.0 ])

let run_ladder ~quick =
  Common.table ~columns:[ "level-wait(s)"; "completeness"; "note" ] (fun () ->
      List.map
        (fun (lw, note) ->
          let config = { Peer.default_config with Peer.level_wait = lw } in
          [
            Common.cell_f lw;
            Common.cell_pct (completeness_with_config ~quick ~config ());
            note;
          ])
        [
          (0.2, "caps too tight: deep data races the root");
          (0.6, "");
          (1.0, "default");
          (2.0, "slack: higher latency, diminishing returns");
        ])

let experiments =
  [
    {
      Common.id = "ablation:siblings";
      title = "Sibling derivation: rotations vs cluster shuffle (union bound)";
      paper_claim =
        "reproduction finding: rotation-derived siblings repeat parents on skewed \
         full trees, collapsing path diversity; the cluster shuffle restores it";
      run = run_siblings;
    };
    {
      Common.id = "ablation:guard";
      title = "Quiescence extension of TS-list deadlines";
      paper_claim =
        "reproduction finding: the first-arrival-only timeout of §4.3 under-waits; \
         extending deadlines while merges continue recovers completeness";
      run = run_guard;
    };
    {
      Common.id = "ablation:ladder";
      title = "Headroom-scaled eviction caps (level ladder)";
      paper_claim =
        "reproduction finding: eviction budgets must grow with a node's headroom or \
         every level races the root's deadline";
      run = run_ladder;
    };
  ]
