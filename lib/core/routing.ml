type decision =
  | Forward of { dst : int; tree : int; descended : bool }
  | Deliver_root
  | Drop

let max_ttl_down = 6

let initial_visited (view : Query.node_view) =
  Array.to_list (Array.mapi (fun tree level -> (tree, level)) view.levels)

let update_visited visited ~tree ~level = (tree, level) :: List.remove_assoc tree visited

let tl visited tree =
  (* Trees the tuple has no record of are unconstrained. *)
  Option.value (List.assoc_opt tree visited) ~default:max_int

(* Choose among candidate trees the one with the minimum local level. *)
let min_level_tree candidates =
  match candidates with
  | [] -> None
  | (t0, l0) :: rest ->
    Some
      (fst
         (List.fold_left
            (fun (bt, bl) (t, l) -> if l < bl then (t, l) else (bt, bl))
            (t0, l0) rest))

let path_horizon = 12

let route ?(avoid = []) ~(view : Query.node_view) ~alive ~rng ~visited ~arrival_tree
    ~ttl_down () =
  let degree = Array.length view.levels in
  let is_root = view.levels.(0) = 0 in
  if is_root then Deliver_root
  else begin
    let excluded n = List.mem n avoid in
    (* Tree [x]'s parent when it is usable, else [Query.no_parent]. *)
    let parent_alive x =
      let p = view.parents.(x) in
      if p <> Query.no_parent && alive p && not (excluded p) then p else Query.no_parent
    in
    (* Stage 1: same tree. *)
    let p = parent_alive arrival_tree in
    if p <> Query.no_parent then Forward { dst = p; tree = arrival_tree; descended = false }
    else begin
      let ol x = view.levels.(x) in
      let eligible constraint_level =
        let rec collect x acc =
          if x < 0 then acc
          else begin
            let acc =
              if parent_alive x <> Query.no_parent && ol x <= constraint_level x then
                (x, ol x) :: acc
              else acc
            in
            collect (x - 1) acc
          end
        in
        collect (degree - 1) []
      in
      (* Stage 2: up* — trees at least as close to the root as the tuple's
         position on its arrival tree. *)
      let tl_arrival = tl visited arrival_tree in
      match min_level_tree (eligible (fun _ -> tl_arrival)) with
      | Some x -> Forward { dst = parent_alive x; tree = x; descended = false }
      | None -> (
        (* Stage 3: flex — forward progress per-tree. *)
        match min_level_tree (eligible (fun x -> tl visited x)) with
        | Some x -> Forward { dst = parent_alive x; tree = x; descended = false }
        | None ->
          (* Stage 4: flex down. A uniform choice over all eligible
             children explores the pocket's boundary; restricting to the
             shallowest tree funnels every retry down the same dead end. *)
          if ttl_down >= max_ttl_down then Drop
          else begin
            let children_satisfying pred =
              List.concat
                (List.init degree (fun x ->
                     if pred x then
                       List.filter_map
                         (fun c -> if alive c && not (excluded c) then Some (x, c) else None)
                         view.children.(x)
                     else []))
            in
            let candidates = children_satisfying (fun x -> ol x <= tl visited x) in
            (* Last resort before dropping: any live, unvisited child. The
               level constraint can rule out every escape route when the
               tuple inherited low visit levels from its creator; the path
               vector and the TTL still bound the walk. *)
            let candidates =
              if candidates = [] then children_satisfying (fun _ -> true) else candidates
            in
            match candidates with
            | [] -> Drop
            | _ ->
              let x, c = Mortar_util.Rng.pick_list rng candidates in
              Forward { dst = c; tree = x; descended = true }
          end)
    end
  end

let stripe_tree (view : Query.node_view) ~counter =
  let degree = Array.length view.levels in
  let rec try_from i remaining =
    if remaining = 0 then None
    else begin
      let x = i mod degree in
      if view.parents.(x) <> Query.no_parent then Some x else try_from (i + 1) (remaining - 1)
    end
  in
  try_from counter degree
