(* Tests for the core data model: values, indices, windows, expressions,
   operators, and summaries. *)

module Value = Mortar_core.Value
module Index = Mortar_core.Index
module Window = Mortar_core.Window
module Expr = Mortar_core.Expr
module Op = Mortar_core.Op
module Summary = Mortar_core.Summary

let check_float = Alcotest.(check (float 1e-9))

let vfloat v = Value.to_float v

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_accessors () =
  check_float "int as float" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check int) "float as int" 3 (Value.to_int (Value.Float 3.7));
  Alcotest.(check string) "string" "x" (Value.to_string (Value.Str "x"));
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.Bool true));
  Alcotest.check_raises "type error"
    (Value.Type_error "expected number, got \"s\"") (fun () ->
      ignore (Value.to_float (Value.Str "s")))

let test_value_records () =
  let r = Value.Record [ ("a", Value.Int 1); ("b", Value.Str "x") ] in
  Alcotest.(check int) "field" 1 (Value.to_int (Value.field r "a"));
  Alcotest.(check (option string))
    "field_opt" (Some "x")
    (Option.map Value.to_string (Value.field_opt r "b"));
  Alcotest.(check (option string)) "missing" None (Option.map Value.show (Value.field_opt r "z"))

let test_value_compare () =
  Alcotest.(check bool) "numeric cross-compare" true
    (Value.compare (Value.Int 2) (Value.Float 2.0) = 0);
  Alcotest.(check bool) "order" true (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "record order insensitive to field order" true
    (Value.equal
       (Value.Record [ ("a", Value.Int 1); ("b", Value.Int 2) ])
       (Value.Record [ ("b", Value.Int 2); ("a", Value.Int 1) ]))

let test_value_wire_size () =
  Alcotest.(check bool) "bigger values bigger" true
    (Value.wire_size (Value.List [ Value.Int 1; Value.Int 2 ])
    > Value.wire_size (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Index *)

let test_index_slots () =
  Alcotest.(check int) "slot of 7.5 at slide 5" 1 (Index.slot ~slide:5.0 7.5);
  Alcotest.(check int) "negative times" (-2) (Index.slot ~slide:5.0 (-7.5));
  let i = Index.of_slot ~slide:5.0 3 in
  check_float "tb" 15.0 i.Index.tb;
  check_float "te" 20.0 i.Index.te

let test_index_overlap () =
  let a = Index.make ~tb:0.0 ~te:10.0 and b = Index.make ~tb:5.0 ~te:15.0 in
  Alcotest.(check bool) "overlap" true (Index.overlaps a b);
  let c = Index.make ~tb:10.0 ~te:20.0 in
  Alcotest.(check bool) "touching intervals do not overlap" false (Index.overlaps a c);
  match Index.intersect a b with
  | None -> Alcotest.fail "expected intersection"
  | Some i ->
    check_float "inter tb" 5.0 i.Index.tb;
    check_float "inter te" 10.0 i.Index.te

let test_index_split () =
  let a = Index.make ~tb:0.0 ~te:10.0 and b = Index.make ~tb:5.0 ~te:15.0 in
  match Index.split a b with
  | None -> Alcotest.fail "expected split"
  | Some s ->
    (match s.Index.before with
    | Some x ->
      check_float "before tb" 0.0 x.Index.tb;
      check_float "before te" 5.0 x.Index.te
    | None -> Alcotest.fail "expected leading residue");
    check_float "overlap tb" 5.0 s.Index.overlap.Index.tb;
    (match s.Index.after with
    | Some x -> check_float "after te" 15.0 x.Index.te
    | None -> Alcotest.fail "expected trailing residue")

let test_index_invalid () =
  Alcotest.check_raises "empty interval" (Invalid_argument "Index.make: tb must be < te")
    (fun () -> ignore (Index.make ~tb:1.0 ~te:1.0))

(* ------------------------------------------------------------------ *)
(* Window *)

let test_window_validation () =
  Alcotest.check_raises "slide > range" (Invalid_argument "Window.time: need 0 < slide <= range")
    (fun () -> ignore (Window.time ~range:1.0 ~slide:2.0));
  Alcotest.(check bool) "tumbling is time" true (Window.is_time (Window.tumbling 5.0));
  check_float "slide" 5.0 (Window.slide_seconds (Window.tumbling 5.0))

(* ------------------------------------------------------------------ *)
(* Expr *)

let payload =
  Value.Record [ ("rssi", Value.Float (-60.0)); ("mac", Value.Str "aa"); ("n", Value.Int 4) ]

let test_expr_eval () =
  let e = Expr.Cmp (Expr.Gt, Expr.Field "rssi", Expr.Const (Value.Float (-90.0))) in
  Alcotest.(check bool) "comparison" true (Expr.eval_bool e payload);
  let e2 =
    Expr.And (e, Expr.Cmp (Expr.Eq, Expr.Field "mac", Expr.Const (Value.Str "aa")))
  in
  Alcotest.(check bool) "conjunction" true (Expr.eval_bool e2 payload);
  let arith = Expr.Binop (Expr.Add, Expr.Field "n", Expr.Const (Value.Int 2)) in
  Alcotest.(check int) "arith" 6 (Value.to_int (Expr.eval arith payload))

let test_expr_scalar_value_field () =
  (* Scalars expose themselves as the "value" field. *)
  let e = Expr.Binop (Expr.Mul, Expr.Field "value", Expr.Const (Value.Int 3)) in
  Alcotest.(check int) "scalar payload" 21 (Value.to_int (Expr.eval e (Value.Int 7)))

let test_expr_transforms () =
  let select = Expr.Select (Expr.Cmp (Expr.Gt, Expr.Field "rssi", Expr.Const (Value.Float (-50.0)))) in
  Alcotest.(check bool) "select rejects" true (Expr.apply [ select ] payload = None);
  let map = Expr.Map [ ("double", Expr.Binop (Expr.Mul, Expr.Field "n", Expr.Const (Value.Int 2))) ] in
  (match Expr.apply [ map ] payload with
  | Some v -> Alcotest.(check int) "mapped" 8 (Value.to_int (Value.field v "double"))
  | None -> Alcotest.fail "map should pass");
  (* Pipeline: select then map. *)
  let keep = Expr.Select (Expr.Cmp (Expr.Lt, Expr.Field "rssi", Expr.Const (Value.Float 0.0))) in
  match Expr.apply [ keep; map ] payload with
  | Some v -> Alcotest.(check bool) "pipeline" true (Value.field_opt v "double" <> None)
  | None -> Alcotest.fail "pipeline should pass"

let test_expr_division_by_zero () =
  Alcotest.check_raises "div by zero" (Value.Type_error "div by zero") (fun () ->
      ignore (Expr.eval (Expr.Binop (Expr.Div, Expr.Const (Value.Int 1), Expr.Const (Value.Int 0))) Value.Null))

(* ------------------------------------------------------------------ *)
(* Op *)

let fold_lift (impl : Op.impl) values =
  List.fold_left (fun acc v -> impl.Op.merge acc (impl.Op.lift v)) impl.Op.init values

let test_op_sum () =
  let impl = Op.compile Op.Sum in
  let r = fold_lift impl [ Value.Int 1; Value.Float 2.5; Value.Int 3 ] in
  check_float "sum" 6.5 (vfloat (impl.Op.finalize r))

let test_op_count_avg () =
  let count = Op.compile Op.Count in
  Alcotest.(check int) "count" 3
    (Value.to_int (count.Op.finalize (fold_lift count [ Value.Int 9; Value.Int 9; Value.Int 9 ])));
  let avg = Op.compile Op.Avg in
  check_float "avg" 2.0
    (vfloat (avg.Op.finalize (fold_lift avg [ Value.Int 1; Value.Int 2; Value.Int 3 ])))

let test_op_min_max () =
  let minimum = Op.compile Op.Min and maximum = Op.compile Op.Max in
  check_float "min" 1.0 (vfloat (minimum.Op.finalize (fold_lift minimum [ Value.Int 3; Value.Int 1; Value.Int 2 ])));
  check_float "max" 3.0 (vfloat (maximum.Op.finalize (fold_lift maximum [ Value.Int 3; Value.Int 1; Value.Int 2 ])));
  Alcotest.(check bool) "identity is null" true (minimum.Op.init = Value.Null)

let test_op_topk () =
  let impl = Op.compile (Op.Top_k { k = 2; key = "score" }) in
  let mk s = Value.Record [ ("score", Value.Float s) ] in
  let r = impl.Op.finalize (fold_lift impl [ mk 1.0; mk 5.0; mk 3.0; mk 4.0 ]) in
  let scores = List.map (fun v -> vfloat (Value.field v "score")) (Value.to_list r) in
  Alcotest.(check (list (float 1e-9))) "top 2 descending" [ 5.0; 4.0 ] scores

let test_op_entropy () =
  let impl = Op.compile Op.Entropy in
  (* Uniform over two categories: entropy = 1 bit. *)
  let r = fold_lift impl [ Value.Str "a"; Value.Str "b"; Value.Str "a"; Value.Str "b" ] in
  check_float "1 bit" 1.0 (vfloat (impl.Op.finalize r));
  (* Single category: 0 bits. *)
  let r0 = fold_lift impl [ Value.Str "a"; Value.Str "a" ] in
  check_float "0 bits" 0.0 (vfloat (impl.Op.finalize r0))

let test_op_histogram () =
  let impl = Op.compile (Op.Histogram { lo = 0.0; hi = 10.0; bins = 2 }) in
  let r = fold_lift impl [ Value.Float 1.0; Value.Float 2.0; Value.Float 9.0 ] in
  let counts = List.map Value.to_int (Value.to_list r) in
  Alcotest.(check (list int)) "bins" [ 2; 1 ] counts

let test_op_quantile () =
  let impl = Op.compile (Op.Quantile { q = 0.9; lo = 0.0; hi = 100.0; bins = 100 }) in
  let values = List.init 100 (fun i -> Value.Float (float_of_int i)) in
  let partial = fold_lift impl values in
  let p90 = vfloat (impl.Op.finalize partial) in
  Alcotest.(check bool) (Printf.sprintf "p90 near 90 (%.1f)" p90) true
    (abs_float (p90 -. 90.0) <= 1.5);
  (* Merging two halves gives the same answer: the sketch is mergeable. *)
  let half1 = fold_lift impl (List.filteri (fun i _ -> i < 50) values) in
  let half2 = fold_lift impl (List.filteri (fun i _ -> i >= 50) values) in
  let merged = vfloat (impl.Op.finalize (impl.Op.merge half1 half2)) in
  Alcotest.(check (float 1e-9)) "mergeable" p90 merged;
  Alcotest.(check bool) "empty is null" true (impl.Op.finalize impl.Op.init = Value.Null)

let test_op_union_cap () =
  let impl = Op.compile (Op.Union { cap = 2 }) in
  let r = fold_lift impl [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  Alcotest.(check int) "capped" 2 (List.length (Value.to_list r))

let test_op_remove_inverse () =
  List.iter
    (fun spec ->
      let impl = Op.compile spec in
      match impl.Op.remove with
      | None -> Alcotest.fail "expected an inverse"
      | Some remove ->
        let lifted = impl.Op.lift (Value.Int 5) in
        let acc = impl.Op.merge (impl.Op.merge impl.Op.init lifted) (impl.Op.lift (Value.Int 2)) in
        let back = remove acc lifted in
        Alcotest.(check bool)
          (Printf.sprintf "merge then remove is identity for %s" (Op.spec_name spec))
          true
          (Value.equal (impl.Op.finalize back) (impl.Op.finalize (impl.Op.merge impl.Op.init (impl.Op.lift (Value.Int 2))))))
    [ Op.Sum; Op.Count; Op.Avg ]

let test_op_custom_registry () =
  Op.register "always-42"
    (fun _args ->
      {
        Op.init = Value.Int 0;
        lift = (fun _ -> Value.Int 0);
        merge = (fun _ _ -> Value.Int 0);
        remove = None;
        finalize = (fun _ -> Value.Int 42);
      });
  Alcotest.(check bool) "registered" true (Op.registered "always-42");
  let impl = Op.compile (Op.Custom { name = "always-42"; args = [] }) in
  Alcotest.(check int) "custom" 42 (Value.to_int (impl.Op.finalize impl.Op.init));
  Alcotest.check_raises "unregistered"
    (Invalid_argument "Op.compile: unregistered operator nope") (fun () ->
      ignore (Op.compile (Op.Custom { name = "nope"; args = [] })))

(* Merge must be associative and commutative — summaries arrive in any
   order over any tree. *)
let value_gen = QCheck.Gen.oneof [
    QCheck.Gen.map (fun i -> Value.Int i) QCheck.Gen.small_signed_int;
    QCheck.Gen.map (fun f -> Value.Float f) (QCheck.Gen.float_range (-100.) 100.);
  ]

let prop_merge_comm spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s merge commutative" (Op.spec_name spec))
    ~count:100
    (QCheck.make QCheck.Gen.(pair value_gen value_gen))
    (fun (a, b) ->
      let impl = Op.compile spec in
      let la = impl.Op.lift a and lb = impl.Op.lift b in
      Value.equal (impl.Op.merge la lb) (impl.Op.merge lb la))

let prop_merge_assoc spec =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s merge associative" (Op.spec_name spec))
    ~count:100
    (QCheck.make QCheck.Gen.(triple value_gen value_gen value_gen))
    (fun (a, b, c) ->
      let impl = Op.compile spec in
      let la = impl.Op.lift a and lb = impl.Op.lift b and lc = impl.Op.lift c in
      let left = impl.Op.merge (impl.Op.merge la lb) lc in
      let right = impl.Op.merge la (impl.Op.merge lb lc) in
      (* Compare finalized values with a tolerance for float rounding. *)
      match (impl.Op.finalize left, impl.Op.finalize right) with
      | Value.Float x, Value.Float y -> abs_float (x -. y) < 1e-6
      | x, y -> Value.equal x y)

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_prov_merge () =
  let merged = Summary.merge_prov [ (1, 2); (2, 1) ] [ (2, 3); (5, 1) ] in
  let get s = Option.value (List.assoc_opt s merged) ~default:0 in
  Alcotest.(check int) "slot 1" 2 (get 1);
  Alcotest.(check int) "slot 2" 4 (get 2);
  Alcotest.(check int) "slot 5" 1 (get 5)

let test_summary_boundary () =
  let b =
    Summary.boundary ~index:(Index.of_slot ~slide:1.0 3) ~identity:(Value.Int 0) ~count:1
      ~age:0.5
  in
  Alcotest.(check bool) "is boundary" true b.Summary.boundary;
  Alcotest.(check int) "carries count" 1 b.Summary.count

let tests =
  [
    Alcotest.test_case "value accessors" `Quick test_value_accessors;
    Alcotest.test_case "value records" `Quick test_value_records;
    Alcotest.test_case "value compare" `Quick test_value_compare;
    Alcotest.test_case "value wire size" `Quick test_value_wire_size;
    Alcotest.test_case "index slots" `Quick test_index_slots;
    Alcotest.test_case "index overlap" `Quick test_index_overlap;
    Alcotest.test_case "index split" `Quick test_index_split;
    Alcotest.test_case "index invalid" `Quick test_index_invalid;
    Alcotest.test_case "window validation" `Quick test_window_validation;
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "expr scalar value field" `Quick test_expr_scalar_value_field;
    Alcotest.test_case "expr transforms" `Quick test_expr_transforms;
    Alcotest.test_case "expr div by zero" `Quick test_expr_division_by_zero;
    Alcotest.test_case "op sum" `Quick test_op_sum;
    Alcotest.test_case "op count/avg" `Quick test_op_count_avg;
    Alcotest.test_case "op min/max" `Quick test_op_min_max;
    Alcotest.test_case "op topk" `Quick test_op_topk;
    Alcotest.test_case "op entropy" `Quick test_op_entropy;
    Alcotest.test_case "op histogram" `Quick test_op_histogram;
    Alcotest.test_case "op quantile" `Quick test_op_quantile;
    Alcotest.test_case "op union cap" `Quick test_op_union_cap;
    Alcotest.test_case "op remove inverse" `Quick test_op_remove_inverse;
    Alcotest.test_case "op custom registry" `Quick test_op_custom_registry;
    QCheck_alcotest.to_alcotest (prop_merge_comm Op.Sum);
    QCheck_alcotest.to_alcotest (prop_merge_comm Op.Min);
    QCheck_alcotest.to_alcotest (prop_merge_comm Op.Count);
    QCheck_alcotest.to_alcotest (prop_merge_assoc Op.Sum);
    QCheck_alcotest.to_alcotest (prop_merge_assoc Op.Max);
    QCheck_alcotest.to_alcotest (prop_merge_assoc Op.Avg);
    Alcotest.test_case "summary prov merge" `Quick test_summary_prov_merge;
    Alcotest.test_case "summary boundary" `Quick test_summary_boundary;
  ]
