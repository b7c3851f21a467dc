type t = { all : Tree.t array }

let same_node_set a b =
  let sa = Array.to_list (Tree.nodes a) |> List.sort compare in
  let sb = Array.to_list (Tree.nodes b) |> List.sort compare in
  sa = sb

let create ~primary ~siblings =
  List.iter
    (fun s ->
      if Tree.root s <> Tree.root primary then
        invalid_arg "Treeset.create: sibling root differs from primary";
      if not (same_node_set primary s) then
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

let parent t ~tree n = Tree.parent t.all.(tree) n

let children t ~tree n = Tree.children t.all.(tree) n

let level t ~tree n = Tree.level t.all.(tree) n

let grandparent t ~tree n =
  match Tree.parent t.all.(tree) n with
  | None -> None
  | Some p -> Tree.parent t.all.(tree) p

let siblings t ~tree n =
  match Tree.parent t.all.(tree) n with
  | None -> []
  | Some p -> List.filter (fun c -> c <> n) (Tree.children t.all.(tree) p)

let unique_children t n =
  let seen = Hashtbl.create 16 in
  Array.iter (fun tr -> List.iter (fun c -> Hashtbl.replace seen c ()) (Tree.children tr n)) t.all;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let union_edges t =
  let seen = Hashtbl.create 64 in
  Array.iter (fun tr -> List.iter (fun e -> Hashtbl.replace seen e ()) (Tree.edges tr)) t.all;
  Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> List.sort compare

let interior_hosts t =
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun tr -> List.iter (fun n -> Hashtbl.replace seen n ()) (Tree.internal_nodes tr))
    t.all;
  Hashtbl.fold (fun n () acc -> n :: acc) seen [] |> List.sort compare
