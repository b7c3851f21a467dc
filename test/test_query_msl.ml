(* Tests for query plans (views, chunking) and the Mortar Stream
   Language. *)

module Query = Mortar_core.Query
module Msl = Mortar_core.Msl
module Op = Mortar_core.Op
module Window = Mortar_core.Window
module Expr = Mortar_core.Expr
module Treeset = Mortar_overlay.Treeset
module Rng = Mortar_util.Rng

let make_treeset ?(n = 64) ?(d = 3) () =
  let rng = Rng.create 66 in
  let nodes = Array.init (n - 1) (fun i -> i + 1) in
  Treeset.random rng ~bf:4 ~d ~root:0 ~nodes

let test_view_of_treeset () =
  let ts = make_treeset () in
  let v = Query.view_of_treeset ts 17 in
  Alcotest.(check int) "parents per tree" 3 (Array.length v.Query.parents);
  Array.iteri
    (fun k p ->
      if p = Query.no_parent then Alcotest.fail "non-root has parents"
      else
        Alcotest.(check (option int)) "parent matches treeset" (Some p)
          (Mortar_overlay.Tree.parent (Treeset.tree ts k) 17))
    v.Query.parents;
  (* Every field, read through one position lookup, matches the node-keyed
     accessors of each tree. *)
  let module Tree = Mortar_overlay.Tree in
  Array.iter
    (fun n ->
      let v = Query.view_of_treeset ~repair_meta:true ts n in
      Array.iteri
        (fun k tr ->
          let parent = Tree.parent tr n in
          Alcotest.(check (list int)) "children" (Tree.children tr n) v.Query.children.(k);
          Alcotest.(check int) "level"
            (List.length (Tree.path_to_root tr n) - 1)
            v.Query.levels.(k);
          Alcotest.(check (option int)) "grandparent"
            (Option.bind parent (Tree.parent tr))
            v.Query.grands.(k);
          Alcotest.(check (list int)) "siblings"
            (match parent with
            | None -> []
            | Some p -> List.filter (fun c -> c <> n) (Tree.children tr p))
            v.Query.sibs.(k))
        (Treeset.trees ts))
    (Treeset.nodes ts);
  let vr = Query.view_of_treeset ts 0 in
  Array.iter
    (fun p -> Alcotest.(check bool) "root has no parent" true (p = Query.no_parent))
    vr.Query.parents;
  Array.iteri
    (fun k h ->
      Alcotest.(check int) "height recorded"
        (Mortar_overlay.Tree.height (Treeset.tree ts k))
        h)
    v.Query.heights

let test_chunk_plan_partitions () =
  let ts = make_treeset () in
  let chunks = Query.chunk_plan ts ~chunks:8 in
  Alcotest.(check bool) "several chunks" true (List.length chunks >= 7);
  (* Every node appears exactly once across chunk member lists. *)
  let all = List.concat_map (fun (c : Query.chunk) -> List.map fst c.Query.members) chunks in
  Alcotest.(check int) "covers all nodes" 64 (List.length all);
  Alcotest.(check int) "no duplicates" 64 (List.length (List.sort_uniq compare all));
  (* Forwarding edges stay within the chunk and reach every member from
     the entry. *)
  List.iter
    (fun (c : Query.chunk) ->
      let members = List.map fst c.Query.members in
      List.iter
        (fun (child, parent) ->
          Alcotest.(check bool) "edge inside chunk" true
            (List.mem child members && List.mem parent members))
        c.Query.edges;
      (* Reachability from the entry over edges. *)
      let children = Hashtbl.create 8 in
      List.iter
        (fun (child, parent) ->
          Hashtbl.replace children parent
            (child :: Option.value (Hashtbl.find_opt children parent) ~default:[]))
        c.Query.edges;
      let reached = Hashtbl.create 8 in
      let rec visit n =
        Hashtbl.replace reached n ();
        List.iter visit (Option.value (Hashtbl.find_opt children n) ~default:[])
      in
      visit c.Query.entry;
      List.iter
        (fun m -> Alcotest.(check bool) "reachable from entry" true (Hashtbl.mem reached m))
        members)
    chunks

let test_chunk_plan_single () =
  let ts = make_treeset () in
  match Query.chunk_plan ts ~chunks:1 with
  | [ c ] -> Alcotest.(check int) "everything in one chunk" 64 (List.length c.Query.members)
  | _ -> Alcotest.fail "expected one chunk"

let test_neighbors () =
  let ts = make_treeset () in
  let v = Query.view_of_treeset ts 9 in
  let neighbors = Query.neighbors v in
  Array.iter
    (fun p ->
      if p <> Query.no_parent then
        Alcotest.(check bool) "parents included" true (List.mem p neighbors))
    v.Query.parents;
  Array.iter
    (List.iter (fun c -> Alcotest.(check bool) "children included" true (List.mem c neighbors)))
    v.Query.children

(* ------------------------------------------------------------------ *)
(* MSL *)

let test_msl_basic_query () =
  let program = Msl.parse {| q = sum(stream("cpu")) window time 5s 1s mode timestamp |} in
  match program with
  | [ Msl.Query_def { name; source; op; window; mode; nodes; _ } ] ->
    Alcotest.(check string) "name" "q" name;
    Alcotest.(check string) "source" "cpu" source;
    Alcotest.(check bool) "op" true (op = Op.Sum);
    Alcotest.(check bool) "window" true (window = Window.time ~range:5.0 ~slide:1.0);
    Alcotest.(check bool) "mode" true (mode = Query.Timestamp);
    Alcotest.(check bool) "nodes" true (nodes = Msl.All)
  | _ -> Alcotest.fail "expected one query"

let test_msl_defaults () =
  match Msl.parse {| q = count(stream("s")) |} with
  | [ Msl.Query_def { window; mode; _ } ] ->
    Alcotest.(check bool) "default window" true (window = Window.tumbling 1.0);
    Alcotest.(check bool) "default mode" true (mode = Query.Syncless)
  | _ -> Alcotest.fail "expected one query"

let test_msl_select_chain () =
  let program =
    Msl.parse
      {|
loud = select(stream("frames"), rssi > -90.0 && mac == "aa")
top  = topk(loud, k=3, key="rssi") window time 1s 1s
|}
  in
  match program with
  | [ Msl.Derived_stream { source; pre; _ }; Msl.Query_def q ] ->
    Alcotest.(check string) "derived source" "frames" source;
    Alcotest.(check int) "one transform" 1 (List.length pre);
    Alcotest.(check string) "query source resolves to raw stream" "frames" q.source;
    Alcotest.(check int) "query inherits select" 1 (List.length q.pre);
    (match q.op with
    | Op.Top_k { k; key } ->
      Alcotest.(check int) "k" 3 k;
      Alcotest.(check string) "key" "rssi" key
    | _ -> Alcotest.fail "expected topk")
  | _ -> Alcotest.fail "expected derived + query"

let test_msl_query_composition () =
  let program =
    Msl.parse {|
inner = sum(stream("x")) window time 1s 1s
outer = max(inner) window time 5s 5s on [0]
|}
  in
  match program with
  | [ _; Msl.Query_def { source; nodes; _ } ] ->
    Alcotest.(check string) "sources the inner query's output" "inner" source;
    Alcotest.(check bool) "scoped" true (nodes = Msl.Nodes [ 0 ])
  | _ -> Alcotest.fail "expected two statements"

let test_msl_durations () =
  match Msl.parse {| q = sum(stream("s")) window time 500ms 250ms |} with
  | [ Msl.Query_def { window; _ } ] ->
    Alcotest.(check bool) "ms durations" true (window = Window.time ~range:0.5 ~slide:0.25)
  | _ -> Alcotest.fail "expected a query"

let test_msl_tuple_window () =
  match Msl.parse {| q = avg(stream("s")) window tuples 20 10 |} with
  | [ Msl.Query_def { window; _ } ] ->
    Alcotest.(check bool) "tuple window" true (window = Window.tuples ~range:20 ~slide:10)
  | _ -> Alcotest.fail "expected a query"

let test_msl_striping_clause () =
  match Msl.parse {| q = sum(stream("s")) striping byindex |} with
  | [ Msl.Query_def { striping = Query.By_index; _ } ] -> ()
  | _ -> Alcotest.fail "expected by-index striping"

let test_msl_quantile () =
  match Msl.parse {| q = quantile(stream("lat"), q=0.99, lo=0.0, hi=1000.0) |} with
  | [ Msl.Query_def { op = Op.Quantile { q; bins; _ }; _ } ] ->
    Alcotest.(check (float 1e-9)) "q" 0.99 q;
    Alcotest.(check int) "default bins" 64 bins
  | _ -> Alcotest.fail "expected a quantile query"

let test_msl_sketch_ops () =
  (match Msl.parse {| q = cm(stream("s")) |} with
  | [ Msl.Query_def { op = Op.Sketch_count_min { depth = 4; width = 256; seed = 7 }; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected a count-min query with defaults");
  (match Msl.parse {| q = hll(stream("s"), b=9, seed=42) |} with
  | [ Msl.Query_def { op = Op.Sketch_hll { b = 9; seed = 42 }; _ } ] -> ()
  | _ -> Alcotest.fail "expected an hll query with overrides");
  match Msl.parse {| q = agms(stream("s"), rows=3, cols=64) |} with
  | [ Msl.Query_def { op = Op.Sketch_agms { rows = 3; cols = 64; seed = 7 }; _ } ] -> ()
  | _ -> Alcotest.fail "expected an agms query"

let test_msl_map () =
  match Msl.parse {| m = map(stream("s"), celsius=(value - 32) / 1.8) |} with
  | [ Msl.Derived_stream { pre = [ Expr.Map [ ("celsius", _) ] ]; _ } ] -> ()
  | _ -> Alcotest.fail "expected a map stream"

let test_msl_comments_and_whitespace () =
  let program = Msl.parse {|
# a comment
q = sum(stream("s"))  # trailing comment
|} in
  Alcotest.(check int) "one statement" 1 (List.length program)

let expect_parse_error text =
  match Msl.parse text with
  | exception Msl.Parse_error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" text)

let test_msl_errors () =
  expect_parse_error {| q = nosuchop(stream("s")) |};
  expect_parse_error {| q = sum(undefined_source) |};
  expect_parse_error {| q = sum(stream("s")) window time 1s |};
  expect_parse_error {| q = topk(stream("s"), k=3) |};
  (* missing key= *)
  expect_parse_error {| q = sum(stream("s") |};
  (* unbalanced *)
  expect_parse_error {| q = select(stream("s"), a >) |};
  expect_parse_error {|
q = sum(stream("s"))
q = sum(stream("s"))
|} (* duplicate *)

let test_msl_error_line_numbers () =
  match Msl.parse "q = sum(stream(\"s\"))\nr = bogus(stream(\"s\"))" with
  | exception Msl.Parse_error { line; _ } -> Alcotest.(check int) "line 2" 2 line
  | _ -> Alcotest.fail "expected error"

(* Values the parser hands to a validating constructor (window bounds,
   integer literals, typed operator arguments) are rejected as parse
   errors at the statement's line, never as the constructor's own
   exception. *)
let test_msl_constructor_errors () =
  let expect_line line text =
    match Msl.parse text with
    | exception Msl.Parse_error { line = got; _ } ->
      Alcotest.(check int) (Printf.sprintf "line of %S" text) line got
    | _ -> Alcotest.fail (Printf.sprintf "expected a parse error for %S" text)
  in
  expect_line 1 {|q = sum(stream("s")) window time 1s 5s|};
  expect_line 1 {|q = sum(stream("s")) window time 0s 0s|};
  expect_line 1 {|q = sum(stream("s")) window tuples 2 5|};
  expect_line 1 {|q = sum(stream("s")) window tuples 99999999999999999999 1|};
  expect_line 2 "a = sum(stream(\"s\"))\nq = sum(stream(\"s\")) window time 1s 5s";
  expect_line 2 "a = sum(stream(\"s\"))\nq = topk(stream(\"s\"), k=\"three\", key=\"v\")";
  expect_line 1 {|q = hll(stream("s"), b="x")|}

(* ------------------------------------------------------------------ *)
(* Fuzzing: arbitrary bytes and mutated valid programs. [Parse_error]
   is the only exception [Msl.parse] may raise. *)

let corpus =
  [
    {|q = sum(stream("cpu")) window time 5s 1s mode timestamp|};
    {|loud = select(stream("frames"), rssi > -90.0 && mac == "aa")
top  = topk(loud, k=3, key="rssi") window time 1s 1s
where = max(top) window time 1s 1s on [0, 1]|};
    {|q = avg(stream("s")) window tuples 20 10 striping byindex|};
    {|q = quantile(stream("lat"), q=0.99, lo=0.0, hi=1000.0, bins=32)|};
    {|m = map(stream("s"), celsius=(value - 32) / 1.8 % 2)
h = histogram(m, lo=0, hi=100, bins=10) window time 500ms 250ms|};
    {|c = cm(stream("k"), depth=4, width=32)  # sketch
u = union(stream("k"), cap=5) mode syncless on all|};
  ]

(* Fragments that reach the clause and argument checks more often than
   uniform bytes do. *)
let fragments =
  [ " window time "; " window tuples "; "0s "; "1s "; "5s "; "2 "; "5 "; "-1";
    "99999999999999999999"; "1.5.5"; "k="; "\""; "("; ")"; ","; "["; "]"; "=";
    " on ["; " mode "; "&&"; "stream("; "\n"; "#"; "1e9"; "3x" ]

let mutate_program =
  QCheck.Gen.(
    oneofl corpus >>= fun w ->
    let n = String.length w in
    let splice i j mid = String.sub w 0 i ^ mid ^ String.sub w j (n - j) in
    frequency
      [
        (2, map (fun k -> String.sub w 0 k) (int_bound n));
        (3, map2 (fun i c -> splice i (min n (i + 1)) (String.make 1 c)) (int_bound n) char);
        (4, map2 (fun i f -> splice i i f) (int_bound n) (oneofl fragments));
        ( 2,
          map2
            (fun i len -> splice i (min n (i + len)) "")
            (int_bound n) (int_range 1 8) );
        (1, string_size ~gen:char (int_range 0 60));
        (1, string_size ~gen:printable (int_range 0 60));
      ])

let prop_msl_fuzz =
  QCheck.Test.make ~name:"msl fuzz: only Parse_error escapes" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") mutate_program)
    (fun text ->
      match Msl.parse text with _ -> true | exception Msl.Parse_error _ -> true)

let test_msl_query_metas () =
  let program =
    Msl.parse
      {|
loud = select(stream("frames"), rssi > -90.0)
top  = topk(loud, k=3, key="rssi")
pos  = max(top) on [0]
|}
  in
  let metas = Msl.query_metas program ~root:5 ~total_nodes:100 () in
  Alcotest.(check int) "two queries" 2 (List.length metas);
  let (m1, _) = List.nth metas 0 and (m2, n2) = List.nth metas 1 in
  Alcotest.(check string) "first query" "top" m1.Query.name;
  Alcotest.(check int) "root" 5 m1.Query.root;
  Alcotest.(check int) "pre folded in" 1 (List.length m1.Query.pre);
  Alcotest.(check string) "second sources first" "top" m2.Query.source;
  Alcotest.(check bool) "scoped to [0]" true (n2 = Msl.Nodes [ 0 ]);
  Alcotest.(check int) "scoped total" 1 m2.Query.total_nodes

let tests =
  [
    Alcotest.test_case "view of treeset" `Quick test_view_of_treeset;
    Alcotest.test_case "chunk plan partitions" `Quick test_chunk_plan_partitions;
    Alcotest.test_case "chunk plan single" `Quick test_chunk_plan_single;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "msl basic query" `Quick test_msl_basic_query;
    Alcotest.test_case "msl defaults" `Quick test_msl_defaults;
    Alcotest.test_case "msl select chain" `Quick test_msl_select_chain;
    Alcotest.test_case "msl query composition" `Quick test_msl_query_composition;
    Alcotest.test_case "msl durations" `Quick test_msl_durations;
    Alcotest.test_case "msl tuple window" `Quick test_msl_tuple_window;
    Alcotest.test_case "msl striping clause" `Quick test_msl_striping_clause;
    Alcotest.test_case "msl quantile" `Quick test_msl_quantile;
    Alcotest.test_case "msl sketch ops" `Quick test_msl_sketch_ops;
    Alcotest.test_case "msl map" `Quick test_msl_map;
    Alcotest.test_case "msl comments" `Quick test_msl_comments_and_whitespace;
    Alcotest.test_case "msl errors" `Quick test_msl_errors;
    Alcotest.test_case "msl error lines" `Quick test_msl_error_line_numbers;
    Alcotest.test_case "msl query metas" `Quick test_msl_query_metas;
    Alcotest.test_case "msl constructor errors" `Quick test_msl_constructor_errors;
    QCheck_alcotest.to_alcotest prop_msl_fuzz;
  ]
