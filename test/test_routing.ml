(* Tests for the staged multipath routing policy (Fig 5). *)

module Routing = Mortar_core.Routing
module Query = Mortar_core.Query

let rng = Mortar_util.Rng.create 55

(* A hand-built two-tree view for a node:
   tree 0: level 2, parent 10, children [20; 21]
   tree 1: level 3, parent 11, children [22]     (heights 4 both) *)
let view : Query.node_view =
  {
    Query.parents = [| 10; 11 |];
    children = [| [ 20; 21 ]; [ 22 ] |];
    levels = [| 2; 3 |];
    heights = [| 4; 4 |];
    grands = [||];
    sibs = [||];
  }

let root_view : Query.node_view =
  {
    Query.parents = [| Query.no_parent; Query.no_parent |];
    children = [| [ 1 ]; [ 2 ] |];
    levels = [| 0; 0 |];
    heights = [| 4; 4 |];
    grands = [||];
    sibs = [||];
  }

let alive_except dead n = not (List.mem n dead)

let fresh_visited = Routing.initial_visited view

let route ?(visited = fresh_visited) ?(dead = []) ?(avoid = []) ?(arrival = 0) ?(ttl = 0) () =
  Routing.route ~avoid ~view ~alive:(alive_except dead) ~rng ~visited ~arrival_tree:arrival
    ~ttl_down:ttl ()

let test_root_delivers () =
  match
    Routing.route ~view:root_view ~alive:(fun _ -> true) ~rng ~visited:[] ~arrival_tree:0
      ~ttl_down:0 ()
  with
  | Routing.Deliver_root -> ()
  | _ -> Alcotest.fail "root must deliver locally"

let test_stage1_same_tree () =
  match route () with
  | Routing.Forward { dst = 10; tree = 0; descended = false } -> ()
  | _ -> Alcotest.fail "expected same-tree parent"

let test_stage2_up_star () =
  (* Parent on tree 0 dead. Tuple arrived on tree 0 where we sit at level
     2; tree 1 has OL 3 > 2, so up* fails... unless tree 1's level were
     lower. With this view, up* cannot apply, so flex applies: tree 1's TL
     is 3 (initial), OL(1) = 3 <= 3 -> forward to 11. *)
  (match route ~dead:[ 10 ] () with
  | Routing.Forward { dst = 11; tree = 1; descended = false } -> ()
  | _ -> Alcotest.fail "expected flex to tree 1");
  (* Now arrival on tree 1 (TL(1)=3): parent 11 dead; up*: tree 0 has OL 2
     <= TL(1)=3 -> forward to 10. *)
  match route ~dead:[ 11 ] ~arrival:1 () with
  | Routing.Forward { dst = 10; tree = 0; descended = false } -> ()
  | _ -> Alcotest.fail "expected up* to tree 0"

let test_stage3_flex_blocked_by_visited () =
  (* The tuple already visited tree 1 at level 2 (deeper in history):
     OL(1) = 3 > TL(1) = 2, so flex to tree 1 is forbidden; with tree 0's
     parent dead it must descend. *)
  let visited = [ (0, 2); (1, 2) ] in
  match route ~visited ~dead:[ 10 ] () with
  | Routing.Forward { descended = true; _ } -> ()
  | Routing.Forward _ -> Alcotest.fail "must not re-enter tree 1 at a deeper level"
  | _ -> Alcotest.fail "expected flex-down"

let test_stage4_ttl_exhausted () =
  let visited = [ (0, 2); (1, 2) ] in
  match route ~visited ~dead:[ 10 ] ~ttl:Routing.max_ttl_down () with
  | Routing.Drop -> ()
  | _ -> Alcotest.fail "expected drop at TTL"

let test_stage5_drop_when_isolated () =
  (* Everything dead: no parents, no children. *)
  match route ~dead:[ 10; 11; 20; 21; 22 ] () with
  | Routing.Drop -> ()
  | _ -> Alcotest.fail "expected drop when isolated"

let test_avoid_excludes () =
  (* The same-tree parent is alive but on the tuple's path: never bounce
     straight back. *)
  match route ~avoid:[ 10 ] () with
  | Routing.Forward { dst; _ } when dst <> 10 -> ()
  | Routing.Forward _ -> Alcotest.fail "must not return to an avoided node"
  | _ -> Alcotest.fail "expected a forward"

let test_flex_down_prefers_live_children () =
  match route ~dead:[ 10; 11 ] () with
  | Routing.Forward { dst; descended = true; _ } ->
    Alcotest.(check bool) "a live child" true (List.mem dst [ 20; 21; 22 ])
  | _ -> Alcotest.fail "expected descent"

let test_initial_visited () =
  Alcotest.(check (list (pair int int))) "initial levels" [ (0, 2); (1, 3) ]
    (List.sort compare (Routing.initial_visited view))

let test_update_visited () =
  let v = Routing.update_visited [ (0, 2); (1, 3) ] ~tree:1 ~level:1 in
  Alcotest.(check (option int)) "updated" (Some 1) (List.assoc_opt 1 v);
  Alcotest.(check (option int)) "other kept" (Some 2) (List.assoc_opt 0 v)

let test_stripe_round_robin () =
  let t0 = Routing.stripe_tree view ~counter:0 in
  let t1 = Routing.stripe_tree view ~counter:1 in
  let t2 = Routing.stripe_tree view ~counter:2 in
  Alcotest.(check (option int)) "counter 0" (Some 0) t0;
  Alcotest.(check (option int)) "counter 1" (Some 1) t1;
  Alcotest.(check (option int)) "wraps" (Some 0) t2

let test_stripe_root_none () =
  Alcotest.(check (option int)) "root stripes nowhere" None
    (Routing.stripe_tree root_view ~counter:0)

(* Property: whatever the liveness pattern, the decision is a live,
   non-avoided neighbor or a drop/deliver. *)
let prop_decisions_sound =
  QCheck.Test.make ~name:"routing decisions are sound" ~count:300
    QCheck.(triple (list_of_size (QCheck.Gen.int_range 0 5) (int_range 10 22)) (int_range 0 1) (int_range 0 6))
    (fun (dead, arrival, ttl) ->
      match
        Routing.route ~view ~alive:(alive_except dead) ~rng ~visited:fresh_visited
          ~arrival_tree:arrival ~ttl_down:ttl ()
      with
      | Routing.Drop | Routing.Deliver_root -> true
      | Routing.Forward { dst; _ } ->
        (not (List.mem dst dead))
        && List.mem dst [ 10; 11; 20; 21; 22 ])

let tests =
  [
    Alcotest.test_case "root delivers" `Quick test_root_delivers;
    Alcotest.test_case "stage 1 same tree" `Quick test_stage1_same_tree;
    Alcotest.test_case "stage 2 up*" `Quick test_stage2_up_star;
    Alcotest.test_case "stage 3 visited constraint" `Quick test_stage3_flex_blocked_by_visited;
    Alcotest.test_case "stage 4 TTL" `Quick test_stage4_ttl_exhausted;
    Alcotest.test_case "stage 5 drop" `Quick test_stage5_drop_when_isolated;
    Alcotest.test_case "avoid excludes" `Quick test_avoid_excludes;
    Alcotest.test_case "flex-down live children" `Quick test_flex_down_prefers_live_children;
    Alcotest.test_case "initial visited" `Quick test_initial_visited;
    Alcotest.test_case "update visited" `Quick test_update_visited;
    Alcotest.test_case "stripe round robin" `Quick test_stripe_round_robin;
    Alcotest.test_case "stripe at root" `Quick test_stripe_root_none;
    QCheck_alcotest.to_alcotest prop_decisions_sound;
  ]
