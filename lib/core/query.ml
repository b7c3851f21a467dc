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
  track_provenance : bool;
}

let make_meta ~name ?(seqno = 1) ~source ?(pre = []) ~op ~window ?(mode = Syncless)
    ?(striping = Round_robin) ~root ?(degree = 4) ~total_nodes ?(aggregate = true)
    ?(track_provenance = false) () =
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
    track_provenance;
  }

type node_view = {
  parents : int option array;
  children : int list array;
  levels : int array;
  heights : int array;
  grands : int option array;
  sibs : int list array;
}

let view_of_treeset ?(repair_meta = false) ts node =
  let d = Treeset.degree ts in
  {
    parents = Array.init d (fun i -> Treeset.parent ts ~tree:i node);
    children = Array.init d (fun i -> Treeset.children ts ~tree:i node);
    levels = Array.init d (fun i -> Treeset.level ts ~tree:i node);
    heights = Array.init d (fun i -> Tree.height (Treeset.tree ts i));
    grands =
      (if repair_meta then Array.init d (fun i -> Treeset.grandparent ts ~tree:i node)
       else [||]);
    sibs =
      (if repair_meta then Array.init d (fun i -> Treeset.siblings ts ~tree:i node)
       else [||]);
  }

let neighbors view =
  let seen = Hashtbl.create 16 in
  Array.iter (function Some p -> Hashtbl.replace seen p () | None -> ()) view.parents;
  Array.iter (List.iter (fun c -> Hashtbl.replace seen c ())) view.children;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

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
  let n = Array.length ordered in
  let per = max 1 ((n + chunks - 1) / chunks) in
  let make_chunk start =
    let stop = min n (start + per) in
    let members_arr = Array.sub ordered start (stop - start) in
    let in_chunk = Hashtbl.create (Array.length members_arr) in
    Array.iter (fun m -> Hashtbl.replace in_chunk m ()) members_arr;
    let entry = members_arr.(0) in
    let edges =
      Array.to_list members_arr
      |> List.filter_map (fun m ->
             if m = entry then None
             else begin
               match Tree.parent primary m with
               | Some p when Hashtbl.mem in_chunk p -> Some (m, p)
               | _ -> Some (m, entry) (* orphan within the chunk: hang off the entry *)
             end)
    in
    let members =
      Array.to_list members_arr
      |> List.map (fun m -> (m, view_of_treeset ?repair_meta ts m))
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
