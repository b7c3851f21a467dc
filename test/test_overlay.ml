(* Tests for trees, planning, sibling derivation, tree sets, and the
   Fig 1 connectivity simulation. *)

module Tree = Mortar_overlay.Tree
module Builder = Mortar_overlay.Builder
module Sibling = Mortar_overlay.Sibling
module Treeset = Mortar_overlay.Treeset
module C = Mortar_overlay.Connectivity
module Rng = Mortar_util.Rng

let small_tree () = Tree.of_parents ~root:0 [ (1, 0); (2, 0); (3, 1); (4, 1); (5, 2) ]

let test_tree_basic () =
  let t = small_tree () in
  Alcotest.(check int) "size" 6 (Tree.size t);
  Alcotest.(check int) "root" 0 (Tree.root t);
  Alcotest.(check (option int)) "parent of 3" (Some 1) (Tree.parent t 3);
  Alcotest.(check (option int)) "parent of root" None (Tree.parent t 0);
  Alcotest.(check (list int)) "children of 1" [ 3; 4 ] (List.sort compare (Tree.children t 1));
  Alcotest.(check int) "level of 5" 2 (Tree.level t 5);
  Alcotest.(check int) "height" 2 (Tree.height t);
  Alcotest.(check bool) "leaf" true (Tree.is_leaf t 4);
  Alcotest.(check bool) "not leaf" false (Tree.is_leaf t 1)

let test_tree_path_to_root () =
  let t = small_tree () in
  Alcotest.(check (list int)) "path" [ 5; 2; 0 ] (Tree.path_to_root t 5)

let test_tree_post_order () =
  let t = small_tree () in
  let order = Tree.post_order t in
  Alcotest.(check int) "all nodes" 6 (List.length order);
  Alcotest.(check int) "root last" 0 (List.nth order 5);
  (* Children appear before their parents. *)
  let pos n = Option.get (List.find_index (( = ) n) order) in
  List.iter
    (fun (c, p) -> Alcotest.(check bool) "child before parent" true (pos c < pos p))
    (Tree.edges t)

let test_tree_invalid () =
  Alcotest.check_raises "two parents"
    (Invalid_argument "Tree.of_parents: node has two parents") (fun () ->
      ignore (Tree.of_parents ~root:0 [ (1, 0); (1, 2) ]));
  Alcotest.check_raises "root has parent"
    (Invalid_argument "Tree.of_parents: root given a parent") (fun () ->
      ignore (Tree.of_parents ~root:0 [ (0, 1) ]));
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.of_parents: graph is not a single tree rooted at root")
    (fun () -> ignore (Tree.of_parents ~root:0 [ (1, 0); (3, 2) ]))

let test_random_tree_shape () =
  let rng = Rng.create 31 in
  let nodes = Array.init 99 (fun i -> i + 1) in
  let t = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
  Alcotest.(check int) "size" 100 (Tree.size t);
  (* Complete 4-ary shape: no node has more than 4 children; height is
     ceil(log4(100)) -ish. *)
  Array.iter
    (fun n ->
      Alcotest.(check bool) "bf bound" true (List.length (Tree.children t n) <= 4))
    (Tree.nodes t);
  Alcotest.(check bool) "height small" true (Tree.height t <= 4)

let test_plan_primary_structure () =
  let rng = Rng.create 32 in
  (* Coordinates in two far-apart groups; the planner should not create
     edges that jump between groups below the root level. *)
  let coords =
    Array.init 41 (fun i ->
        if i = 0 then [| 0.0; 0.0 |]
        else if i <= 20 then [| Rng.uniform rng 0.0 1.0; 0.0 |]
        else [| Rng.uniform rng 100.0 101.0; 0.0 |])
  in
  let nodes = Array.init 40 (fun i -> i + 1) in
  let t = Builder.plan_primary rng ~coords ~bf:4 ~root:0 ~nodes in
  Alcotest.(check int) "spans all" 41 (Tree.size t);
  (* Count cross-group edges (excluding those touching the root). *)
  let group i = if i <= 20 then 0 else 1 in
  let crossings =
    List.filter (fun (c, p) -> p <> 0 && group c <> group p) (Tree.edges t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "few cross-group edges (%d)" (List.length crossings))
    true
    (List.length crossings <= 2)

let test_plan_primary_bf_respected () =
  let rng = Rng.create 33 in
  let coords = Array.init 100 (fun _ -> [| Rng.uniform rng 0.0 1.0; Rng.uniform rng 0.0 1.0 |]) in
  let nodes = Array.init 99 (fun i -> i + 1) in
  let t = Builder.plan_primary rng ~coords ~bf:8 ~root:0 ~nodes in
  Array.iter
    (fun n -> Alcotest.(check bool) "bf bound" true (List.length (Tree.children t n) <= 8))
    (Tree.nodes t)

let test_sibling_same_membership () =
  let rng = Rng.create 34 in
  let nodes = Array.init 63 (fun i -> i + 1) in
  let primary = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
  let sib = Sibling.derive rng primary in
  Alcotest.(check int) "same root" 0 (Tree.root sib);
  let sort a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "same node set" (sort (Tree.nodes primary)) (sort (Tree.nodes sib))

let test_sibling_introduces_diversity () =
  let rng = Rng.create 35 in
  let nodes = Array.init 255 (fun i -> i + 1) in
  let primary = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
  let sib = Sibling.derive rng primary in
  (* Some leaves must have moved into the interior. *)
  let interior t =
    Tree.internal_nodes t |> List.sort compare
  in
  Alcotest.(check bool) "interiors differ" true (interior primary <> interior sib);
  let overlap = Sibling.interior_overlap primary sib in
  Alcotest.(check bool)
    (Printf.sprintf "partial overlap (%.2f)" overlap)
    true
    (overlap < 0.9)

let test_cluster_shuffle_preserves_clusters () =
  let rng = Rng.create 36 in
  let nodes = Array.init 127 (fun i -> i + 1) in
  let primary = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
  let sib = Sibling.derive_cluster_shuffle rng ~bf:4 primary in
  let sort a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "same node set" (sort (Tree.nodes primary)) (sort (Tree.nodes sib));
  Alcotest.(check int) "same root" 0 (Tree.root sib);
  (* Each primary cluster's member set equals some sibling cluster's. *)
  let cluster_sets t =
    Tree.children t 0
    |> List.map (fun head ->
           let rec collect n acc =
             List.fold_left (fun acc c -> collect c acc) (n :: acc) (Tree.children t n)
           in
           List.sort compare (collect head []))
    |> List.sort compare
  in
  Alcotest.(check bool) "clusters preserved" true (cluster_sets primary = cluster_sets sib)

let test_cluster_shuffle_diversifies_parents () =
  let rng = Rng.create 37 in
  let nodes = Array.init 679 (fun i -> i + 1) in
  let primary = Builder.random_tree rng ~bf:16 ~root:0 ~nodes in
  let sibs = Sibling.derive_many_cluster_shuffle rng ~bf:16 primary ~n:3 in
  (* Count nodes whose parent is identical on all four trees — the
     rotation scheme's pathology; the shuffle should leave almost none. *)
  let repeated =
    Array.to_list (Tree.nodes primary)
    |> List.filter (fun n ->
           n <> 0
           &&
           let p0 = Tree.parent primary n in
           List.for_all (fun s -> Tree.parent s n = p0) sibs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "few identical-parent nodes (%d)" (List.length repeated))
    true
    (List.length repeated < 10)

let test_treeset_validation () =
  let rng = Rng.create 38 in
  let nodes = Array.init 15 (fun i -> i + 1) in
  let primary = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
  let other_nodes = Array.init 15 (fun i -> i + 2) in
  let wrong = Builder.random_tree rng ~bf:4 ~root:1 ~nodes:other_nodes in
  Alcotest.check_raises "root mismatch"
    (Invalid_argument "Treeset.create: sibling root differs from primary") (fun () ->
      ignore (Treeset.create ~primary ~siblings:[ wrong ]))

let test_treeset_views () =
  let rng = Rng.create 39 in
  let nodes = Array.init 63 (fun i -> i + 1) in
  let ts = Treeset.random rng ~bf:4 ~d:3 ~root:0 ~nodes in
  Alcotest.(check int) "degree" 3 (Treeset.degree ts);
  Alcotest.(check int) "root" 0 (Treeset.root ts)

let test_connectivity_scheme_ordering () =
  (* At a fixed failure level: striping <= single+eps, mirroring(2) >=
     single, dynamic(4) >= mirroring(2), optimal-ish. *)
  let run scheme = (C.run_trials ~seed:3 ~n:1000 ~bf:32 ~trials:30 ~link_failure:0.2 scheme).C.mean in
  let single = run C.Single_tree in
  let striping = run (C.Static_striping 4) in
  let mirror2 = run (C.Mirroring 2) in
  let dynamic2 = run (C.Dynamic_striping 2) in
  let dynamic4 = run (C.Dynamic_striping 4) in
  Alcotest.(check bool) "striping ~ single" true (abs_float (striping -. single) < 10.0);
  Alcotest.(check bool) "mirroring beats single" true (mirror2 > single);
  Alcotest.(check bool) "dynamic beats mirroring at same D" true (dynamic2 > mirror2);
  Alcotest.(check bool) "dynamic(4) near optimal" true (dynamic4 > 97.0)

let test_connectivity_no_failures_perfect () =
  List.iter
    (fun scheme ->
      let r = C.run_trials ~seed:4 ~n:500 ~bf:8 ~trials:5 ~link_failure:0.0 scheme in
      Alcotest.(check (float 1e-6)) "100% with no failures" 100.0 r.C.mean)
    [ C.Single_tree; C.Static_striping 2; C.Mirroring 3; C.Dynamic_striping 4 ]

let test_union_reachable () =
  let rng = Rng.create 40 in
  let nodes = Array.init 63 (fun i -> i + 1) in
  let ts = Treeset.random rng ~bf:4 ~d:2 ~root:0 ~nodes in
  let all = C.union_reachable (Treeset.trees ts) ~dead:(fun _ -> false) in
  Alcotest.(check int) "all reachable when alive" 64 (List.length all);
  let without_root = C.union_reachable (Treeset.trees ts) ~dead:(fun n -> n = 0) in
  Alcotest.(check int) "nothing without root" 0 (List.length without_root)

let prop_sibling_keeps_size =
  QCheck.Test.make ~name:"sibling derivation preserves size" ~count:30
    QCheck.(int_range 4 200)
    (fun n ->
      let rng = Rng.create n in
      let nodes = Array.init (n - 1) (fun i -> i + 1) in
      let primary = Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
      let sib = Sibling.derive rng primary in
      Tree.size sib = n && Tree.root sib = 0)

let tests =
  [
    Alcotest.test_case "tree basics" `Quick test_tree_basic;
    Alcotest.test_case "tree path to root" `Quick test_tree_path_to_root;
    Alcotest.test_case "tree post order" `Quick test_tree_post_order;
    Alcotest.test_case "tree invalid inputs" `Quick test_tree_invalid;
    Alcotest.test_case "random tree shape" `Quick test_random_tree_shape;
    Alcotest.test_case "planner clusters locality" `Quick test_plan_primary_structure;
    Alcotest.test_case "planner respects bf" `Quick test_plan_primary_bf_respected;
    Alcotest.test_case "sibling same membership" `Quick test_sibling_same_membership;
    Alcotest.test_case "sibling diversity" `Quick test_sibling_introduces_diversity;
    Alcotest.test_case "cluster shuffle preserves clusters" `Quick
      test_cluster_shuffle_preserves_clusters;
    Alcotest.test_case "cluster shuffle diversifies parents" `Quick
      test_cluster_shuffle_diversifies_parents;
    Alcotest.test_case "treeset validation" `Quick test_treeset_validation;
    Alcotest.test_case "treeset views" `Quick test_treeset_views;
    Alcotest.test_case "connectivity scheme ordering" `Slow test_connectivity_scheme_ordering;
    Alcotest.test_case "connectivity perfect without failures" `Quick
      test_connectivity_no_failures_perfect;
    Alcotest.test_case "union reachable" `Quick test_union_reachable;
    QCheck_alcotest.to_alcotest prop_sibling_keeps_size;
  ]
