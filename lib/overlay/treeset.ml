type t = { all : Tree.t array }

let create ~primary ~siblings =
  List.iter
    (fun s ->
      if Tree.root s <> Tree.root primary then
        invalid_arg "Treeset.create: sibling root differs from primary";
      if Tree.nodes s <> Tree.nodes primary then
        invalid_arg "Treeset.create: sibling node set differs from primary")
    siblings;
  { all = Array.of_list (primary :: siblings) }

let plan ?(style = `Cluster_shuffle) rng ~coords ~bf ~d ~root ~nodes =
  assert (d >= 1);
  let primary = Builder.plan_primary rng ~coords ~bf ~root ~nodes in
  let siblings =
    match style with
    | `Rotation -> Sibling.derive_many rng primary ~n:(d - 1)
    | `Cluster_shuffle -> Sibling.derive_many_cluster_shuffle rng ~bf primary ~n:(d - 1)
  in
  create ~primary ~siblings

let random rng ~bf ~d ~root ~nodes =
  assert (d >= 1);
  let trees = List.init d (fun _ -> Builder.random_tree rng ~bf ~root ~nodes) in
  match trees with
  | [] -> assert false
  | primary :: siblings -> create ~primary ~siblings

let degree t = Array.length t.all

let tree t i = t.all.(i)

let trees t = t.all

let root t = Tree.root t.all.(0)

let nodes t = Tree.nodes t.all.(0)

let unique_children t n =
  let i = Tree.position t.all.(0) n in
  List.sort_uniq compare (List.concat_map (fun tr -> Tree.children_at tr i) (Array.to_list t.all))

let union_edges t = List.sort_uniq compare (List.concat_map Tree.edges (Array.to_list t.all))

let interior_hosts t =
  List.sort_uniq compare (List.concat_map Tree.internal_nodes (Array.to_list t.all))
