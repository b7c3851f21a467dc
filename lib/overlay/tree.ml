type node = int

(* One sorted array of member ids; every other array is indexed by a
   member's position in it. A position is therefore the member's rank
   among the tree's ids, so trees over one node set number their members
   alike, and walking positions in order walks the ids ascending. *)
type t = {
  root : node;
  members : node array; (* ascending *)
  parent : int array; (* the parent's position; -1 at the root *)
  children : node list array; (* ascending ids *)
  level : int array;
  height : int; (* max level, fixed at construction *)
}

(* Binary search; -1 for non-members. *)
let find (members : node array) n =
  let lo = ref 0 and hi = ref (Array.length members) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if members.(mid) < n then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length members && members.(!lo) = n then !lo else -1

let position t n =
  let i = find t.members n in
  if i < 0 then raise Not_found else i

let node_at t i = t.members.(i)

let parent_position t i = t.parent.(i)

let children_at t i = t.children.(i)

let level_at t i = t.level.(i)

let root t = t.root

let mem t n = find t.members n >= 0

let parent t n =
  let p = t.parent.(position t n) in
  if p < 0 then None else Some t.members.(p)

let children t n = t.children.(position t n)

(* Root first, then the remaining members in ascending order. *)
let nodes t =
  let r = find t.members t.root in
  Array.init (Array.length t.members) (fun i ->
      if i = 0 then t.root else t.members.(if i <= r then i - 1 else i))

let size t = Array.length t.members

(* Precomputed at construction: [view_of_treeset] reads the height for
   every member during installs, and an O(n) fold here made chunk
   planning O(n^2). *)
let height t = t.height

let is_leaf t n = children t n = []

let internal_nodes t =
  Array.to_list (nodes t) |> List.filter (fun n -> not (is_leaf t n))

module Obs = Mortar_obs.Obs

let of_parents ~root edge_list =
  let members =
    Array.of_list (List.sort_uniq compare (root :: List.map fst edge_list))
  in
  let n = Array.length members in
  (* Parent ids first, in edge-list order, so the first offending edge
     names the error. *)
  let parent_id = Array.make n (-1) in
  let set = Array.make n false in
  List.iter
    (fun (child, par) ->
      if child = root then invalid_arg "Tree.of_parents: root given a parent";
      let i = find members child in
      if set.(i) then invalid_arg "Tree.of_parents: node has two parents";
      set.(i) <- true;
      parent_id.(i) <- par)
    edge_list;
  let disconnected () =
    invalid_arg "Tree.of_parents: graph is not a single tree rooted at root"
  in
  let parent = Array.make n (-1) and children = Array.make n [] in
  for i = n - 1 downto 0 do
    if set.(i) then begin
      let p = find members parent_id.(i) in
      if p < 0 then disconnected ();
      parent.(i) <- p;
      (* Descending positions: each child list comes out ascending. *)
      children.(p) <- members.(i) :: children.(p)
    end
  done;
  (* A level is one more than the parent's; a chain longer than the tree
     never reaches the root and is a cycle. *)
  let level = Array.make n (-1) in
  level.(find members root) <- 0;
  let rec depth i steps =
    if level.(i) < 0 then begin
      if steps > n then disconnected ();
      level.(i) <- depth parent.(i) (steps + 1) + 1
    end;
    level.(i)
  in
  let height = ref 0 in
  for i = 0 to n - 1 do
    height := max !height (depth i 0)
  done;
  let height = !height in
  if !Obs.enabled then begin
    Obs.incr "overlay.trees_built";
    Obs.observe ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |] "overlay.tree_height"
      (float_of_int height)
  end;
  { root; members; parent; children; level; height }

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

(* Ascending child order: the order [Connectivity.fail_links] draws in. *)
let edges t =
  let acc = ref [] in
  for i = Array.length t.members - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then acc := (t.members.(i), t.members.(p)) :: !acc
  done;
  !acc
