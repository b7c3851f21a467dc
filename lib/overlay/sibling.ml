module Rng = Mortar_util.Rng

(* [label] maps a position of the primary to the node currently
   occupying it. Rotations swap labels, leaving the shape untouched, so
   the final tree is read off by relabelling the primary's edges. *)
let derive rng primary =
  let label = Array.init (Tree.size primary) (Tree.node_at primary) in
  let rotate position =
    match Tree.children_at primary position with
    | [] -> ()
    | cs ->
      let child = Tree.position primary (List.nth cs (Rng.int rng (List.length cs))) in
      let lp = label.(position) in
      label.(position) <- label.(child);
      label.(child) <- lp
  in
  List.iter (fun n -> rotate (Tree.position primary n)) (Tree.post_order primary);
  (* Rotating the root subtree may move another node into the root
     position, but every tree in the set must deliver to the same root
     operator — so pin the original root's label back, exchanging it with
     whatever landed there. *)
  let original_root = Tree.root primary in
  let displaced = label.(Tree.position primary original_root) in
  let relabel n =
    let l = label.(Tree.position primary n) in
    if l = displaced then original_root else if l = original_root then displaced else l
  in
  Tree.of_parents ~root:original_root
    (List.map (fun (c, p) -> (relabel c, relabel p)) (Tree.edges primary))

let derive_many rng primary ~n = List.init n (fun _ -> derive rng primary)

(* Rebuild each level-1 subtree as a random bf-ary tree over its own node
   set, under a freshly drawn head. Cluster membership — the planner's
   network-awareness — is preserved exactly; everything below the root is
   re-drawn, so parents are independent across siblings. *)
let derive_cluster_shuffle rng ~bf primary =
  let root = Tree.root primary in
  let edges = ref [] in
  List.iter
    (fun head ->
      let members =
        let rec collect n acc =
          List.fold_left (fun acc c -> collect c acc) (n :: acc) (Tree.children primary n)
        in
        Array.of_list (collect head [])
      in
      let new_head = members.(Rng.int rng (Array.length members)) in
      let rest = Array.of_list (List.filter (fun n -> n <> new_head) (Array.to_list members)) in
      let sub = Builder.random_tree rng ~bf ~root:new_head ~nodes:rest in
      edges := (new_head, root) :: (Tree.edges sub @ !edges))
    (Tree.children primary root);
  Tree.of_parents ~root !edges

let derive_many_cluster_shuffle rng ~bf primary ~n =
  List.init n (fun _ -> derive_cluster_shuffle rng ~bf primary)

let interior_overlap a b =
  let ia = Tree.internal_nodes a in
  match ia with
  | [] -> 1.0
  | _ ->
    let common = List.length (List.filter (fun n -> Tree.mem b n && not (Tree.is_leaf b n)) ia) in
    float_of_int common /. float_of_int (List.length ia)

(* Repair donor ordering (self-healing). The candidate list is canonical —
   grandparent first, then surviving siblings ascending — and every edge it
   can introduce strictly decreases the (original level, id) lexicographic
   rank of the adopted parent: a grandparent sits two levels up, and a
   sibling donor is admitted only when its id is strictly below the
   orphan's. Adoption edges therefore never close a cycle, whatever order
   concurrent orphans repair in. *)
let repair_donors ~self ~grand ~siblings =
  let g = match grand with Some g -> [ (g, `Grand) ] | None -> [] in
  let sibs =
    List.filter (fun s -> s < self) siblings
    |> List.sort compare
    |> List.map (fun s -> (s, `Sib))
  in
  g @ sibs
