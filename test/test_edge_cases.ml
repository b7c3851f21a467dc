(* Edge-case and property tests across modules, complementing the
   per-module suites. *)

module Value = Mortar_core.Value
module Index = Mortar_core.Index
module Expr = Mortar_core.Expr
module Msl = Mortar_core.Msl
module Tree = Mortar_overlay.Tree
module Rng = Mortar_util.Rng

(* ------------------------------------------------------------------ *)
(* Values *)

let test_value_nested () =
  let v =
    Value.Record
      [ ("inner", Value.Record [ ("xs", Value.List [ Value.Int 1; Value.Int 2 ]) ]) ]
  in
  match Value.field (Value.field v "inner") "xs" with
  | Value.List l -> Alcotest.(check int) "nested list" 2 (List.length l)
  | _ -> Alcotest.fail "expected a list"

let test_value_null_ordering () =
  Alcotest.(check bool) "null smallest" true (Value.compare Value.Null (Value.Int (-1000)) < 0);
  Alcotest.(check bool) "null equal null" true (Value.equal Value.Null Value.Null)

let test_value_list_compare () =
  Alcotest.(check bool) "lexicographic" true
    (Value.compare (Value.List [ Value.Int 1; Value.Int 2 ]) (Value.List [ Value.Int 1; Value.Int 3 ])
    < 0);
  Alcotest.(check bool) "prefix shorter" true
    (Value.compare (Value.List [ Value.Int 1 ]) (Value.List [ Value.Int 1; Value.Int 0 ]) < 0)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_value_show_readable () =
  let v = Value.Record [ ("a", Value.Str "xy"); ("b", Value.Float 1.5) ] in
  let s = Value.show v in
  Alcotest.(check bool) "mentions field a" true (contains s "a=");
  Alcotest.(check bool) "mentions value" true (contains s "1.5")

(* ------------------------------------------------------------------ *)
(* Index properties *)

let prop_slot_of_slot =
  QCheck.Test.make ~name:"slot(of_slot) is identity" ~count:200
    QCheck.(pair (int_range (-1000) 1000) (float_range 0.1 20.))
    (fun (i, slide) ->
      let idx = Index.of_slot ~slide i in
      Index.slot ~slide ((idx.Index.tb +. idx.Index.te) /. 2.0) = i)

(* ------------------------------------------------------------------ *)
(* Expr edge cases *)

let test_expr_not_neg () =
  let p = Value.Record [ ("b", Value.Bool false); ("n", Value.Int 5) ] in
  Alcotest.(check bool) "not" true (Expr.eval_bool (Expr.Not (Expr.Field "b")) p);
  Alcotest.(check int) "neg" (-5) (Value.to_int (Expr.eval (Expr.Neg (Expr.Field "n")) p))

let test_expr_string_compare () =
  let p = Value.Record [ ("s", Value.Str "abc") ] in
  Alcotest.(check bool) "string lt" true
    (Expr.eval_bool (Expr.Cmp (Expr.Lt, Expr.Field "s", Expr.Const (Value.Str "abd"))) p)

let test_expr_float_int_mix () =
  let e = Expr.Binop (Expr.Add, Expr.Const (Value.Int 1), Expr.Const (Value.Float 0.5)) in
  Alcotest.(check (float 1e-9)) "mixed arith" 1.5 (Value.to_float (Expr.eval e Value.Null))

(* ------------------------------------------------------------------ *)
(* MSL corners *)

let test_msl_custom_positional_args () =
  Mortar_core.Op.register "scaled-sum"
    (fun args ->
      let k = match args with [ v ] -> Value.to_float v | _ -> 1.0 in
      let sum = Mortar_core.Op.compile Mortar_core.Op.Sum in
      { sum with Mortar_core.Op.finalize = (fun v -> Value.Float (k *. Value.to_float v)) });
  match Msl.parse {| q = scaled-sum(stream("s"), 2.5) |} with
  | exception Msl.Parse_error _ ->
    (* Hyphen is not an identifier char; register under a legal name. *)
    Mortar_core.Op.register "scaledsum"
      (fun _ -> Mortar_core.Op.compile Mortar_core.Op.Sum);
    (match Msl.parse {| q = scaledsum(stream("s"), 2.5) |} with
    | [ Msl.Query_def { op = Mortar_core.Op.Custom { name; args }; _ } ] ->
      Alcotest.(check string) "custom name" "scaledsum" name;
      Alcotest.(check int) "one arg" 1 (List.length args)
    | _ -> Alcotest.fail "expected custom query")
  | [ Msl.Query_def _ ] -> ()
  | _ -> Alcotest.fail "unexpected parse"

let test_msl_negative_literal () =
  match Msl.parse {| q = select(stream("s"), rssi > -90.0) |} with
  | [ (Msl.Derived_stream { pre = [ Expr.Select _ ]; _ } as s) ] ->
    Alcotest.(check string) "statement name" "q" (Msl.statement_name s)
  | _ -> Alcotest.fail "negative literal in predicate"

(* ------------------------------------------------------------------ *)
(* Trees *)

let prop_map_nodes_bijection =
  QCheck.Test.make ~name:"map_nodes by bijection preserves structure" ~count:50
    QCheck.(int_range 4 100)
    (fun n ->
      let rng = Rng.create (n * 3) in
      let nodes = Array.init (n - 1) (fun i -> i + 1) in
      let t = Mortar_overlay.Builder.random_tree rng ~bf:3 ~root:0 ~nodes in
      let shifted = Tree.map_nodes t (fun x -> x + 1000) in
      Tree.size shifted = n
      && Tree.root shifted = 1000
      && Tree.height shifted = Tree.height t)

let test_single_node_tree () =
  let t = Tree.of_parents ~root:7 [] in
  Alcotest.(check int) "size 1" 1 (Tree.size t);
  Alcotest.(check int) "height 0" 0 (Tree.height t);
  Alcotest.(check bool) "leaf root" true (Tree.is_leaf t 7);
  Alcotest.(check (list int)) "post order" [ 7 ] (Tree.post_order t)

let prop_cluster_shuffle_bf_bound =
  QCheck.Test.make ~name:"cluster shuffle respects bf" ~count:30
    QCheck.(int_range 20 200)
    (fun n ->
      let rng = Rng.create n in
      let nodes = Array.init (n - 1) (fun i -> i + 1) in
      let primary = Mortar_overlay.Builder.random_tree rng ~bf:4 ~root:0 ~nodes in
      let sib = Mortar_overlay.Sibling.derive_cluster_shuffle rng ~bf:4 primary in
      Array.for_all
        (fun node -> node = 0 || List.length (Tree.children sib node) <= 4)
        (Tree.nodes sib))

(* ------------------------------------------------------------------ *)
(* Transport / engine corners *)

let test_transport_full_loss () =
  let topo = Mortar_net.Topology.star ~link_delay:0.001 ~hosts:4 in
  let engine = Mortar_sim.Engine.create () in
  let tr =
    (Mortar_net.Transport.create_sharded ~engines:[| engine |] ~shard_of:(fun _ -> 0)
       ~rngs:[| Rng.create 1 |] ~batches:(Mortar_sim.Shard.create ~shards:1) topo ~loss:1.0 ()).(0)
  in
  let got = ref 0 in
  Mortar_net.Transport.register tr 1 (fun ~src:_ _ -> incr got);
  for _ = 1 to 50 do
    Mortar_net.Transport.send tr ~src:0 ~dst:1 ~size:8 ~kind:"data" ()
  done;
  Mortar_sim.Engine.run engine;
  Alcotest.(check int) "all lost" 0 !got

let test_engine_schedule_at_past () =
  let e = Mortar_sim.Engine.create () in
  ignore (Mortar_sim.Engine.schedule e ~after:5.0 (fun () -> ()));
  Mortar_sim.Engine.run e;
  let fired_at = ref (-1.0) in
  ignore
    (Mortar_sim.Engine.schedule_at e ~at:1.0 (fun () -> fired_at := Mortar_sim.Engine.now e));
  Mortar_sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped to now" 5.0 !fired_at

(* ------------------------------------------------------------------ *)
(* BSort corners *)

let test_bsort_equal_timestamps () =
  let b = Mortar_central.Bsort.create ~capacity:2 in
  ignore (Mortar_central.Bsort.push b ~ts:1.0 "a");
  ignore (Mortar_central.Bsort.push b ~ts:1.0 "b");
  let out = Mortar_central.Bsort.flush b in
  Alcotest.(check int) "both kept" 2 (List.length out);
  (* Equal timestamps preserve arrival order. *)
  Alcotest.(check (list string)) "fifo among equals" [ "a"; "b" ] (List.map snd out)

let tests =
  [
    Alcotest.test_case "value nested" `Quick test_value_nested;
    Alcotest.test_case "value null ordering" `Quick test_value_null_ordering;
    Alcotest.test_case "value list compare" `Quick test_value_list_compare;
    Alcotest.test_case "value show readable" `Quick test_value_show_readable;
    QCheck_alcotest.to_alcotest prop_slot_of_slot;
    Alcotest.test_case "expr not/neg" `Quick test_expr_not_neg;
    Alcotest.test_case "expr string compare" `Quick test_expr_string_compare;
    Alcotest.test_case "expr float/int mix" `Quick test_expr_float_int_mix;
    Alcotest.test_case "msl custom args" `Quick test_msl_custom_positional_args;
    Alcotest.test_case "msl negative literal" `Quick test_msl_negative_literal;
    QCheck_alcotest.to_alcotest prop_map_nodes_bijection;
    Alcotest.test_case "single-node tree" `Quick test_single_node_tree;
    QCheck_alcotest.to_alcotest prop_cluster_shuffle_bf_bound;
    Alcotest.test_case "transport full loss" `Quick test_transport_full_loss;
    Alcotest.test_case "engine schedule_at past" `Quick test_engine_schedule_at_past;
    Alcotest.test_case "bsort equal timestamps" `Quick test_bsort_equal_timestamps;
  ]
