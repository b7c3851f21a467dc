module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs

type scheme =
  | Single_tree
  | Static_striping of int
  | Mirroring of int
  | Dynamic_striping of int

let scheme_name = function
  | Single_tree -> "single-tree"
  | Static_striping d -> Printf.sprintf "striping,D=%d" d
  | Mirroring d -> Printf.sprintf "mirroring,D=%d" d
  | Dynamic_striping d -> Printf.sprintf "dynamic,D=%d" d

let degree_of = function
  | Single_tree -> 1
  | Static_striping d | Mirroring d | Dynamic_striping d -> d

(* For each tree, the set of live (child, parent) links after failures. *)
let fail_links rng tree ~link_failure =
  List.filter (fun _ -> Rng.float rng 1.0 >= link_failure) (Tree.edges tree)

(* Nodes that can reach the root within a single tree over live links:
   propagate reachability down from the root over live edges. *)
let reachable_single tree live_edges ~dead =
  let live = Hashtbl.create 256 in
  List.iter (fun (c, p) -> Hashtbl.replace live c p) live_edges;
  let root = Tree.root tree in
  let memo = Hashtbl.create 256 in
  let rec ok n =
    if n = root then not (Hashtbl.mem dead n)
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r =
          (not (Hashtbl.mem dead n))
          &&
          match Hashtbl.find_opt live n with
          | None -> false
          | Some p -> ok p
        in
        Hashtbl.replace memo n r;
        r
  in
  ok

(* Union reachability: undirected BFS from the root over live links of all
   trees, skipping dead nodes — the "walk the in-memory graph" of §2.1. *)
let reachable_union trees live_edge_sets ~dead =
  let adj = Hashtbl.create 1024 in
  let add a b = Hashtbl.replace adj a (b :: Option.value (Hashtbl.find_opt adj a) ~default:[]) in
  List.iter (fun edges -> List.iter (fun (c, p) -> add c p; add p c) edges) live_edge_sets;
  let root = Tree.root trees.(0) in
  let seen = Hashtbl.create 1024 in
  if not (Hashtbl.mem dead root) then begin
    let queue = Queue.create () in
    Hashtbl.replace seen root ();
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if (not (Hashtbl.mem seen v)) && not (Hashtbl.mem dead v) then begin
            Hashtbl.replace seen v ();
            Queue.add v queue
          end)
        (Option.value (Hashtbl.find_opt adj u) ~default:[])
    done
  end;
  fun n -> Hashtbl.mem seen n

let measure rng ~trees ~dead ~link_failure scheme =
  let d = degree_of scheme in
  assert (d <= Array.length trees);
  let used = Array.sub trees 0 d in
  let live_edge_sets =
    Array.to_list (Array.map (fun t -> fail_links rng t ~link_failure) used)
  in
  let root = Tree.root used.(0) in
  let population =
    Array.to_list (Tree.nodes used.(0))
    |> List.filter (fun n -> n <> root && not (Hashtbl.mem dead n))
  in
  if population = [] then 1.0
  else begin
    let per_tree_ok =
      List.map2
        (fun tree edges -> reachable_single tree edges ~dead)
        (Array.to_list used) live_edge_sets
    in
    let contribution n =
      match scheme with
      | Single_tree -> if (List.hd per_tree_ok) n then 1.0 else 0.0
      | Static_striping _ ->
        let live = List.length (List.filter (fun ok -> ok n) per_tree_ok) in
        float_of_int live /. float_of_int d
      | Mirroring _ -> if List.exists (fun ok -> ok n) per_tree_ok then 1.0 else 0.0
      | Dynamic_striping _ ->
        let ok = reachable_union used live_edge_sets ~dead in
        if ok n then 1.0 else 0.0
    in
    (* Dynamic striping recomputes union reachability per node if done
       naively; hoist it. *)
    let contribution =
      match scheme with
      | Dynamic_striping _ ->
        let ok = reachable_union used live_edge_sets ~dead in
        fun n -> if ok n then 1.0 else 0.0
      | _ -> contribution
    in
    let total = List.fold_left (fun acc n -> acc +. contribution n) 0.0 population in
    total /. float_of_int (List.length population)
  end

let completeness rng ~trees ~link_failure scheme =
  measure rng ~trees ~dead:(Hashtbl.create 1) ~link_failure scheme

let union_reachable trees ~dead =
  let dead_tbl = Hashtbl.create 64 in
  Array.iter
    (fun n -> if dead n then Hashtbl.replace dead_tbl n ())
    (Tree.nodes trees.(0));
  let edge_sets = Array.to_list (Array.map Tree.edges trees) in
  let ok = reachable_union trees edge_sets ~dead:dead_tbl in
  Array.to_list (Tree.nodes trees.(0)) |> List.filter ok

let run_trials ~seed ~n ~bf ~trials ~link_failure scheme =
  let rng = Rng.create seed in
  let d = degree_of scheme in
  let scope = Obs.Query (scheme_name scheme) in
  let samples =
    Array.init trials (fun _ ->
        let nodes = Array.init (n - 1) (fun i -> i + 1) in
        let trees =
          Array.init d (fun _ -> Builder.random_tree rng ~bf ~root:0 ~nodes)
        in
        let pct = 100.0 *. completeness rng ~trees ~link_failure scheme in
        if !Obs.enabled then begin
          Obs.incr ~scope "connectivity.trials";
          Obs.observe ~scope
            ~buckets:[| 10.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 100.0 |]
            "connectivity.completeness_pct" pct
        end;
        pct)
  in
  Mortar_util.Stats.mean samples
