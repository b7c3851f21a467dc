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

(* Trees over one node set share positions (see {!Tree.position}), so
   every per-node table below is an array indexed by position. *)

(* Whether each member's link to its parent survives: one draw per
   non-root member, in ascending id order. *)
let fail_links rng tree ~link_failure =
  let root = Tree.position tree (Tree.root tree) in
  Array.init (Tree.size tree) (fun i -> i <> root && Rng.float rng 1.0 >= link_failure)

(* Whether a member's path to the root in one tree is fully live. *)
let reachable_single tree live =
  let memo = Array.make (Tree.size tree) 0 (* 0 unknown, 1 reaches, 2 cut *) in
  let rec ok i =
    if memo.(i) = 0 then begin
      let p = Tree.parent_position tree i in
      memo.(i) <- (if p < 0 || (live.(i) && ok p) then 1 else 2)
    end;
    memo.(i) = 1
  in
  ok

(* Union reachability: whether a member reaches the root over the live
   links of all trees, skipping dead members — the "walk the in-memory
   graph" of §2.1, as a union-find over positions. *)
let reachable_union trees lives ~dead =
  let uf = Array.init (Tree.size trees.(0)) Fun.id in
  let rec find i =
    let p = uf.(i) in
    if p = i then i
    else begin
      let r = find p in
      uf.(i) <- r;
      r
    end
  in
  Array.iteri
    (fun k tree ->
      Array.iteri
        (fun i live ->
          let p = Tree.parent_position tree i in
          if live && p >= 0 && (not (dead i)) && not (dead p) then uf.(find i) <- find p)
        lives.(k))
    trees;
  let root = Tree.position trees.(0) (Tree.root trees.(0)) in
  fun i -> (not (dead root)) && find i = find root

let completeness rng ~trees ~link_failure scheme =
  let d = degree_of scheme in
  assert (d <= Array.length trees);
  let used = Array.sub trees 0 d in
  let lives = Array.map (fun t -> fail_links rng t ~link_failure) used in
  let n = Tree.size used.(0) in
  if n = 1 then 1.0
  else begin
    let count oks i = Array.fold_left (fun acc ok -> if ok i then acc + 1 else acc) 0 oks in
    let contribution =
      match scheme with
      | Single_tree ->
        let ok = reachable_single used.(0) lives.(0) in
        fun i -> if ok i then 1.0 else 0.0
      | Static_striping _ ->
        let oks = Array.map2 reachable_single used lives in
        fun i -> float_of_int (count oks i) /. float_of_int d
      | Mirroring _ ->
        let oks = Array.map2 reachable_single used lives in
        fun i -> if count oks i > 0 then 1.0 else 0.0
      | Dynamic_striping _ ->
        let ok = reachable_union used lives ~dead:(fun _ -> false) in
        fun i -> if ok i then 1.0 else 0.0
    in
    let root = Tree.position used.(0) (Tree.root used.(0)) in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      if i <> root then total := !total +. contribution i
    done;
    !total /. float_of_int (n - 1)
  end

let union_reachable trees ~dead =
  let t0 = trees.(0) in
  let n = Tree.size t0 in
  let dead_at = Array.init n (fun i -> dead (Tree.node_at t0 i)) in
  let all_live = Array.make (Array.length trees) (Array.make n true) in
  let ok = reachable_union trees all_live ~dead:(Array.get dead_at) in
  Array.to_list (Tree.nodes t0) |> List.filter (fun m -> ok (Tree.position t0 m))

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
