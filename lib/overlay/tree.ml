type node = int

type t = {
  root : node;
  parent : (node, node) Hashtbl.t; (* no binding for root *)
  children : (node, node list) Hashtbl.t;
  level : (node, int) Hashtbl.t;
  height : int; (* max level, fixed at construction *)
}

let root t = t.root

let mem t n = n = t.root || Hashtbl.mem t.parent n

let parent t n =
  match Hashtbl.find_opt t.parent n with
  | Some p -> Some p
  | None -> if n = t.root then None else raise Not_found

let children t n =
  if not (mem t n) then raise Not_found
  else Option.value (Hashtbl.find_opt t.children n) ~default:[]

let level t n =
  match Hashtbl.find_opt t.level n with
  | Some l -> l
  | None -> raise Not_found

(* Root first, then the remaining nodes in ascending order — never in
   hash order (lint D3). *)
let nodes t =
  let rest =
    Hashtbl.fold (fun child _ acc -> child :: acc) t.parent [] |> List.sort compare
  in
  Array.of_list (t.root :: rest)

let size t = 1 + Hashtbl.length t.parent

(* Precomputed at construction: [view_of_treeset] reads the height for
   every member during installs, and an O(n) fold here made chunk
   planning O(n^2). *)
let height t = t.height

let is_leaf t n = children t n = []

let internal_nodes t =
  Array.to_list (nodes t) |> List.filter (fun n -> not (is_leaf t n))

(* Compute levels via BFS from the root; also detects disconnection. *)
let compute_levels ~root ~parent ~children =
  let level = Hashtbl.create (Hashtbl.length parent + 1) in
  Hashtbl.replace level root 0;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let lu = Hashtbl.find level u in
    List.iter
      (fun v ->
        Hashtbl.replace level v (lu + 1);
        Queue.add v queue)
      (Option.value (Hashtbl.find_opt children u) ~default:[])
  done;
  if Hashtbl.length level <> Hashtbl.length parent + 1 then
    invalid_arg "Tree.of_parents: graph is not a single tree rooted at root";
  level

module Obs = Mortar_obs.Obs

let of_parents ~root edge_list =
  let parent = Hashtbl.create (List.length edge_list) in
  let children = Hashtbl.create (List.length edge_list) in
  List.iter
    (fun (child, par) ->
      if child = root then invalid_arg "Tree.of_parents: root given a parent";
      if Hashtbl.mem parent child then invalid_arg "Tree.of_parents: node has two parents";
      Hashtbl.replace parent child par;
      Hashtbl.replace children par (child :: Option.value (Hashtbl.find_opt children par) ~default:[]))
    edge_list;
  (* Canonicalise sibling order so traversals do not depend on the edge
     list's order — [map_nodes] rebuilds from [edges], which used to be
     hash-ordered, and child order is simulation-visible (send order). *)
  Hashtbl.filter_map_inplace (fun _ cs -> Some (List.sort compare cs)) children;
  let level = compute_levels ~root ~parent ~children in
  let height = Hashtbl.fold (fun _ l acc -> max l acc) level 0 in
  let t = { root; parent; children; level; height } in
  if !Obs.enabled then begin
    Obs.incr "overlay.trees_built";
    Obs.observe ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |] "overlay.tree_height"
      (float_of_int height)
  end;
  t

let post_order t =
  let rec visit n acc =
    let acc = List.fold_left (fun acc c -> visit c acc) acc (children t n) in
    n :: acc
  in
  List.rev (visit t.root [])

let path_to_root t n =
  let rec up n acc =
    match parent t n with
    | None -> List.rev (n :: acc)
    | Some p -> up p (n :: acc)
  in
  up n []

let edges t =
  Hashtbl.fold (fun child par acc -> (child, par) :: acc) t.parent []
  |> List.sort compare

let map_nodes t f =
  let root = f t.root in
  let edge_list = List.map (fun (c, p) -> (f c, f p)) (edges t) in
  of_parents ~root edge_list
