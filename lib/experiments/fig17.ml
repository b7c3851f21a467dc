(* Figure 17 (§7.3): network-aware planning. For 179 randomly chosen nodes
   over an Inet-like topology, build 30 random, planned (primary), and
   derived (sibling) trees per branching factor in {2,4,8,16,32}; report
   the average 90th-percentile overlay latency from peers to the root.
   The paper: planning beats random by 30-50%, and sibling derivation
   preserves most of the benefit. We additionally report both sibling
   derivations — the paper's rotations and our cluster shuffle. *)

module D = Mortar_emul.Deployment
module Builder = Mortar_overlay.Builder
module Sibling = Mortar_overlay.Sibling
module Tree = Mortar_overlay.Tree

let p90_latency_ms topo tree =
  let nodes = Tree.nodes tree in
  let latencies =
    Array.to_list nodes
    |> List.filter (fun n -> n <> Tree.root tree)
    |> List.map (fun n -> Builder.overlay_latency_to_root tree topo n *. 1000.0)
  in
  Mortar_util.Stats.percentile (Array.of_list latencies) 90.0

let run ~quick =
  let hosts = if quick then 340 else 680 in
  let sample = 179 in
  let trees_per_point = if quick then 10 else 30 in
  let rng = Mortar_util.Rng.create 777 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:8 ~stubs:34 ~hosts () in
  let d = D.create_sharded ~seed:77 topo in
  D.converge_coordinates d ();
  let coords = D.coordinates d in
  let bfs = [ 2; 4; 8; 16; 32 ] in
  Common.table ~columns:[ "bf"; "random(ms)"; "planned(ms)"; "rotated(ms)"; "shuffled(ms)" ]
    (fun () ->
      List.map
        (fun bf ->
          let random_acc = ref [] and planned_acc = ref [] in
          let rotated_acc = ref [] and shuffled_acc = ref [] in
          for _ = 1 to trees_per_point do
            (* 179 randomly chosen nodes, fresh per trial. *)
            let members =
              Mortar_util.Rng.sample rng (Array.init hosts Fun.id) sample
            in
            let root = members.(0) in
            let nodes = Array.sub members 1 (sample - 1) in
            let random_tree = Builder.random_tree rng ~bf ~root ~nodes in
            let planned = Builder.plan_primary rng ~coords ~bf ~root ~nodes in
            let rotated = Sibling.derive rng planned in
            let shuffled = Sibling.derive_cluster_shuffle rng ~bf planned in
            random_acc := p90_latency_ms topo random_tree :: !random_acc;
            planned_acc := p90_latency_ms topo planned :: !planned_acc;
            rotated_acc := p90_latency_ms topo rotated :: !rotated_acc;
            shuffled_acc := p90_latency_ms topo shuffled :: !shuffled_acc
          done;
          let mean l = Mortar_util.Stats.mean (Array.of_list l) in
          [
            string_of_int bf;
            Common.cell_f (mean !random_acc);
            Common.cell_f (mean !planned_acc);
            Common.cell_f (mean !rotated_acc);
            Common.cell_f (mean !shuffled_acc);
          ])
        bfs)

let experiment =
  {
    Common.id = "fig17";
    title = "Peer-to-root overlay latency: random vs planned vs derived trees";
    paper_claim =
      "recursive-cluster planning improves on random by 30-50%; derived siblings \
       preserve most of the benefit across branching factors";
    run;
  }
