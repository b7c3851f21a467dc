module Treeset = Mortar_overlay.Treeset
module Tree = Mortar_overlay.Tree

type mode = Syncless | Timestamp

type striping = Round_robin | By_index

type meta = {
  name : string;
  seqno : int;
  source : string;
  pre : Expr.transform list;
  op : Op.spec;
  window : Window.t;
  mode : mode;
  striping : striping;
  root : int;
  degree : int;
  total_nodes : int;
  aggregate : bool;
}

let make_meta ~name ?(seqno = 1) ~source ?(pre = []) ~op ~window ?(mode = Syncless)
    ?(striping = Round_robin) ~root ?(degree = 4) ~total_nodes ?(aggregate = true) () =
  {
    name;
    seqno;
    source;
    pre;
    op;
    window;
    mode;
    striping;
    root;
    degree;
    total_nodes;
    aggregate;
  }

let no_parent = -1

type node_view = {
  parents : int array;
  children : int list array;
  levels : int array;
  heights : int array;
  grands : int option array;
  sibs : int list array;
}

let heights ts = Array.init (Treeset.degree ts) (fun i -> Tree.height (Treeset.tree ts i))

(* One lookup: every tree of the set numbers its members alike. *)
let view_of_treeset ?(repair_meta = false) ?heights:hs ts node =
  let trees = Treeset.trees ts in
  let i = Tree.position trees.(0) node in
  let per_tree f = Array.map f trees in
  (* A position's parent position; -1 above the root. *)
  let up tr i = if i < 0 then -1 else Tree.parent_position tr i in
  let node_at tr i = if i < 0 then None else Some (Tree.node_at tr i) in
  {
    parents = per_tree (fun tr -> Option.value (node_at tr (up tr i)) ~default:no_parent);
    children = per_tree (fun tr -> Tree.children_at tr i);
    levels = per_tree (fun tr -> Tree.level_at tr i);
    heights = (match hs with Some h -> h | None -> heights ts);
    grands = (if repair_meta then per_tree (fun tr -> node_at tr (up tr (up tr i))) else [||]);
    sibs =
      (if repair_meta then
         per_tree (fun tr ->
             let p = up tr i in
             if p < 0 then [] else List.filter (( <> ) node) (Tree.children_at tr p))
       else [||]);
  }

let neighbors view =
  let parents = List.filter (fun p -> p <> no_parent) (Array.to_list view.parents) in
  List.sort_uniq compare (parents @ List.concat (Array.to_list view.children))

type chunk = {
  entry : int;
  members : (int * node_view) list;
  edges : (int * int) list;
}

let chunk_plan ?repair_meta ts ~chunks =
  assert (chunks >= 1);
  let primary = Treeset.tree ts 0 in
  (* BFS order keeps components contiguous, so most forwarding edges are
     real tree edges. *)
  let order = Queue.create () in
  let bfs = Queue.create () in
  Queue.add (Tree.root primary) bfs;
  while not (Queue.is_empty bfs) do
    let n = Queue.pop bfs in
    Queue.add n order;
    List.iter (fun c -> Queue.add c bfs) (Tree.children primary n)
  done;
  let ordered = Array.of_seq (Queue.to_seq order) in
  (* One heights array for every view of the plan: it never changes. *)
  let heights = heights ts in
  let n = Array.length ordered in
  let per = max 1 ((n + chunks - 1) / chunks) in
  (* Each member's chunk, by position in the primary. *)
  let chunk_of = Array.make n 0 in
  Array.iteri (fun k m -> chunk_of.(Tree.position primary m) <- k / per) ordered;
  let make_chunk start =
    let stop = min n (start + per) in
    let members_arr = Array.sub ordered start (stop - start) in
    let entry = members_arr.(0) in
    let edges =
      Array.to_list members_arr
      |> List.filter_map (fun m ->
             if m = entry then None
             else begin
               let i = Tree.position primary m in
               let p = Tree.parent_position primary i in
               if p >= 0 && chunk_of.(p) = chunk_of.(i) then Some (m, Tree.node_at primary p)
               else Some (m, entry) (* orphan within the chunk: hang off the entry *)
             end)
    in
    let members =
      Array.to_list members_arr
      |> List.map (fun m -> (m, view_of_treeset ?repair_meta ~heights ts m))
    in
    { entry; members; edges }
  in
  let rec build start acc =
    if start >= n then List.rev acc else build (start + per) (make_chunk start :: acc)
  in
  build 0 []

let meta_wire_size meta =
  String.length meta.name + String.length meta.source + Op.spec_wire_size meta.op
  + List.fold_left
      (fun acc tr ->
        acc
        +
        match tr with
        | Expr.Select e -> Expr.wire_size e
        | Expr.Map fields ->
          List.fold_left (fun a (n, e) -> a + String.length n + Expr.wire_size e) 0 fields)
      0 meta.pre
  + 40 (* window, mode, root, degree, flags, seqno *)

let view_wire_size view =
  let children = Array.fold_left (fun acc l -> acc + List.length l) 0 view.children in
  let repair =
    (* Only paid when repair metadata is shipped: one optional id per tree
       plus the sibling id lists. *)
    let sibs = Array.fold_left (fun acc l -> acc + List.length l) 0 view.sibs in
    (Array.length view.grands * 6) + (sibs * 4)
  in
  (Array.length view.parents * 14) + (children * 4) + repair
