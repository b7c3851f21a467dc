module Rng = Mortar_util.Rng

let random_tree rng ~bf ~root ~nodes =
  assert (bf >= 1);
  let shuffled = Array.copy nodes in
  Rng.shuffle rng shuffled;
  (* Complete bf-ary shape: the i-th placed node (0-based over root::rest)
     has the ((i - 1) / bf)-th placed node as parent. *)
  let placed = Array.append [| root |] shuffled in
  let edges = ref [] in
  for i = 1 to Array.length placed - 1 do
    edges := (placed.(i), placed.((i - 1) / bf)) :: !edges
  done;
  Tree.of_parents ~root !edges

let plan_primary rng ~coords ~bf ~root ~nodes =
  assert (bf >= 2);
  let edges = ref [] in
  let rec go parent_node set =
    let n = Array.length set in
    if n = 0 then ()
    else if n <= bf then
      Array.iter (fun c -> edges := (c, parent_node) :: !edges) set
    else begin
      let points = Array.map (fun i -> coords.(i)) set in
      let clustering = Mortar_cluster.Kmeans.cluster rng ~k:bf points in
      Array.iter
        (function
        | [] -> ()
        | members ->
          let head_local = Mortar_cluster.Kmeans.medoid_of points members in
          let head = set.(head_local) in
          edges := (head, parent_node) :: !edges;
          let rest =
            members
            |> List.filter (fun i -> i <> head_local)
            |> List.map (fun i -> set.(i))
            |> Array.of_list
          in
          go head rest)
        (Mortar_cluster.Kmeans.buckets clustering)
    end
  in
  go root nodes;
  Tree.of_parents ~root !edges

let overlay_latency_to_root tree topo node =
  let rec up n acc =
    match Tree.parent tree n with
    | None -> acc
    | Some p -> up p (acc +. Mortar_net.Topology.latency topo n p)
  in
  up node 0.0
