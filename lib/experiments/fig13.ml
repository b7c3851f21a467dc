(* Figure 13 (§7.2.1): heartbeat sharing. The number of unique children a
   node must heartbeat, as the number of queries grows (one query per
   peer, each aggregating all other nodes), for 1, 2, and 4 trees.
   Overhead scales sub-linearly: repeated clusterings on the same
   coordinates yield similar primary trees, and siblings share children.
   This is a static property of the planned tree sets — no simulation. *)

module D = Mortar_emul.Deployment
module Treeset = Mortar_overlay.Treeset

let unique_children_per_node ~seed ~hosts ~queries ~degree =
  let rng = Mortar_util.Rng.create (seed * 613) in
  let topo =
    Mortar_net.Topology.transit_stub rng ~transits:4
      ~stubs:(max 4 (hosts / 20))
      ~hosts ()
  in
  let d = D.create_sharded ~seed topo in
  D.converge_coordinates d ();
  (* children.(n) = set of unique children node n heartbeats, across all
     queries' tree sets. *)
  let children = Array.init hosts (fun _ -> Hashtbl.create 16) in
  for q = 0 to queries - 1 do
    let root = q mod hosts in
    let nodes =
      Array.of_list (List.filter (fun i -> i <> root) (List.init hosts Fun.id))
    in
    let ts = D.plan d ~bf:16 ~d:degree ~root ~nodes () in
    Array.iter
      (fun n ->
        List.iter
          (fun c -> Hashtbl.replace children.(n) c ())
          (Treeset.unique_children ts n))
      (Treeset.nodes ts)
  done;
  let counts = Array.map (fun tbl -> float_of_int (Hashtbl.length tbl)) children in
  Mortar_util.Stats.mean counts

let run ~quick =
  let sizes = if quick then [ 25; 50; 100 ] else [ 25; 50; 100; 150; 200 ] in
  let degrees = [ 1; 2; 4 ] in
  Common.table
    ~columns:
      ("queries(=nodes)"
      :: (List.map (fun d -> Printf.sprintf "D=%d" d) degrees @ [ "N (linear ref)" ]))
    (fun () ->
      List.map
        (fun n ->
          string_of_int n
          :: (List.map
                (fun degree ->
                  Common.cell_f
                    (unique_children_per_node ~seed:5 ~hosts:n ~queries:n ~degree))
                degrees
             @ [ string_of_int n ]))
        sizes)

let experiment =
  {
    Common.id = "fig13";
    title = "Unique heartbeat children per node vs number of queries";
    paper_claim =
      "sub-linear in queries; 2 trees ~2x one tree, 4 trees only ~50% more than 2 \
       (sibling construction constrains possible children)";
    run;
  }
