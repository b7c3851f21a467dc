(* The sketch merge laws the in-network aggregation relies on.

   A sketch partial travels up a striped multipath tree, merging with
   siblings in whatever order loss and scheduling produce. The laws
   under test are exactly what the routing layer assumes:

   - merge is commutative and associative (any merge tree, one answer);
   - merge-then-query equals query-on-union — exactly for the linear
     sketches (Count-Min, AGMS), within the advertised error for HLL;
   - serialization is a pure function of the cell contents, so equal
     sketches are byte-identical however they were built (this is what
     makes the --domains 1 vs --domains 4 contract hold for sketch
     queries — see Test_parallel);
   - the codec rejects truncated, oversized and mistagged inputs
     instead of constructing a corrupt sketch;
   - the Op layer wraps all failures as type faults, never crashes. *)

module Cm = Mortar_sketch.Count_min
module Agms = Mortar_sketch.Agms
module Hll = Mortar_sketch.Hll
module Op = Mortar_core.Op
module Value = Mortar_core.Value

(* Key lists span empty → large so both sparse and dense wire forms are
   exercised (4x32 Count-Min goes dense around 60 distinct keys). *)
let keys_gen = QCheck.Gen.(list_size (int_range 0 300) (int_range 0 500))

let cm_of keys =
  let t = Cm.create ~depth:4 ~width:32 ~seed:11 in
  List.iter (fun k -> Cm.add t ~key:k ~w:1) keys;
  t

let agms_of keys =
  let t = Agms.create ~rows:5 ~cols:32 ~seed:11 in
  List.iter (fun k -> Agms.add t ~key:k ~w:1) keys;
  t

let hll_of ?(b = 9) keys =
  let t = Hll.create ~b ~seed:11 in
  List.iter (fun k -> Hll.add t ~key:k) keys;
  t

let pair_gen = QCheck.make QCheck.Gen.(pair keys_gen keys_gen)

let triple_gen = QCheck.make QCheck.Gen.(triple keys_gen keys_gen keys_gen)

(* ------------------------------------------------------------------ *)
(* Merge laws, compared on wire bytes: stronger than comparing query
   answers, and exactly the property the determinism contract needs. *)

let prop_comm name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge commutative (bytes)") ~count:100 pair_gen
    (fun (ka, kb) ->
      let a = of_keys ka and b = of_keys kb in
      String.equal (to_string (merge a b)) (to_string (merge b a)))

let prop_assoc name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge associative (bytes)") ~count:100 triple_gen
    (fun (ka, kb, kc) ->
      let a = of_keys ka and b = of_keys kb and c = of_keys kc in
      String.equal (to_string (merge (merge a b) c)) (to_string (merge a (merge b c))))

let prop_union name of_keys to_string merge =
  QCheck.Test.make ~name:(name ^ " merge = sketch of union (bytes)") ~count:100 pair_gen
    (fun (ka, kb) ->
      let a = of_keys ka and b = of_keys kb in
      String.equal (to_string (merge a b)) (to_string (of_keys (ka @ kb))))

let prop_roundtrip name of_keys to_string of_string =
  QCheck.Test.make ~name:(name ^ " codec round-trip (bytes)") ~count:100
    (QCheck.make keys_gen) (fun keys ->
      let t = of_keys keys in
      let w1 = to_string t in
      (* decode → re-encode is the identity, and re-encoding the same
         value twice gives the same bytes (no hidden state). *)
      String.equal w1 (to_string (of_string w1)) && String.equal w1 (to_string t))

let prop_hll_idempotent =
  QCheck.Test.make ~name:"hll merge idempotent (bytes)" ~count:100 (QCheck.make keys_gen)
    (fun keys ->
      let t = hll_of keys in
      String.equal (Hll.to_string (Hll.merge t t)) (Hll.to_string t))

let prop_cm_query_bounds =
  QCheck.Test.make ~name:"cm query overestimates, total exact" ~count:100
    (QCheck.make keys_gen) (fun keys ->
      let t = cm_of keys in
      let exact = Hashtbl.create 64 in
      List.iter
        (fun k ->
          Hashtbl.replace exact k (1 + Option.value (Hashtbl.find_opt exact k) ~default:0))
        keys;
      Cm.total t = List.length keys
      && Hashtbl.fold (fun k c ok -> ok && Cm.query t ~key:k >= c) exact true)

(* ------------------------------------------------------------------ *)
(* Accuracy at the advertised error, deterministic seeds. *)

let test_hll_accuracy () =
  (* b=12: 4096 registers, standard error 1.04/sqrt(4096) = 1.6%. *)
  let t = Hll.create ~b:12 ~seed:3 in
  for k = 1 to 10_000 do
    Hll.add t ~key:k
  done;
  let est = Hll.estimate t in
  let err = Float.abs (est -. 10_000.0) /. 10_000.0 in
  if err > 0.05 then Alcotest.failf "hll estimate %.1f off by %.1f%%" est (100.0 *. err)

let test_hll_small_range () =
  (* Linear-counting regime: tiny cardinalities stay near-exact. *)
  let t = Hll.create ~b:10 ~seed:3 in
  List.iter (fun k -> Hll.add t ~key:k) [ 1; 2; 3; 4; 5; 3; 2; 1 ];
  let est = Hll.estimate t in
  if Float.abs (est -. 5.0) > 0.5 then Alcotest.failf "hll small-range estimate %.2f" est

let test_agms_accuracy () =
  (* 1000 tuples over a skewed domain; F2 within the ~2/sqrt(cols)
     envelope for this fixed seed. *)
  let t = Agms.create ~rows:7 ~cols:64 ~seed:3 in
  let exact = Hashtbl.create 64 in
  for i = 0 to 999 do
    let k = i mod 50 in
    let k = if i mod 3 = 0 then k mod 7 else k in
    Agms.add t ~key:k ~w:1;
    Hashtbl.replace exact k (1 + Option.value (Hashtbl.find_opt exact k) ~default:0)
  done;
  let f2 =
    Hashtbl.fold (fun _ c acc -> acc +. (float_of_int c *. float_of_int c)) exact 0.0
  in
  let est = Agms.second_moment t in
  let err = Float.abs (est -. f2) /. f2 in
  if err > 0.30 then Alcotest.failf "agms f2 %.0f vs exact %.0f (%.0f%%)" est f2 (100.0 *. err)

(* ------------------------------------------------------------------ *)
(* Codec rejection. *)

let expect_failure name f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Failure _ -> ()

let test_codec_rejects () =
  let cm = cm_of [ 1; 2; 3 ] in
  let wire = Cm.to_string cm in
  expect_failure "truncated" (fun () -> Cm.of_string (String.sub wire 0 (String.length wire - 1)));
  expect_failure "trailing bytes" (fun () -> Cm.of_string (wire ^ "\x00"));
  expect_failure "wrong magic" (fun () -> Agms.of_string wire);
  expect_failure "empty" (fun () -> Hll.of_string "");
  expect_failure "mismatched merge" (fun () ->
      Cm.merge cm (Cm.create ~depth:4 ~width:64 ~seed:11));
  expect_failure "bad create" (fun () -> Hll.create ~b:2 ~seed:1)

let test_wire_caps () =
  (* The planner charges state_wire_size as the worst case; the dense
     form must never exceed it. *)
  let cm = cm_of (List.init 5_000 (fun i -> i)) in
  Alcotest.(check bool) "cm within cap" true
    (String.length (Cm.to_string cm) <= Cm.max_bytes ~depth:4 ~width:32);
  let h = hll_of ~b:9 (List.init 5_000 (fun i -> i)) in
  Alcotest.(check bool) "hll within cap" true
    (String.length (Hll.to_string h) <= Hll.max_bytes ~b:9)

(* ------------------------------------------------------------------ *)
(* The Op wrapping: Value-level lift/merge/finalize, fault behavior. *)

let test_op_hll () =
  let impl = Op.compile (Op.Sketch_hll { b = 9; seed = 5 }) in
  let lifted =
    List.fold_left
      (fun acc i -> impl.Op.merge acc (impl.Op.lift (Value.Int i)))
      impl.Op.init
      (List.init 500 (fun i -> i mod 100))
  in
  match impl.Op.finalize lifted with
  | Value.Float est ->
    if Float.abs (est -. 100.0) /. 100.0 > 0.15 then
      Alcotest.failf "op hll estimate %.1f" est
  | v -> Alcotest.failf "op hll finalized to %s" (Value.show v)

let test_op_merge_order_bytes () =
  (* Same tuples, opposite merge order: byte-identical packed result —
     the property the parallel engine's contract inherits. *)
  let impl = Op.compile (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) in
  let parts = List.init 20 (fun i -> impl.Op.lift (Value.Int (i mod 7))) in
  let fwd = List.fold_left impl.Op.merge impl.Op.init parts in
  let bwd = List.fold_left impl.Op.merge impl.Op.init (List.rev parts) in
  Alcotest.(check bool) "identical bytes" true (Value.equal fwd bwd);
  (* Null is the identity on both sides. *)
  Alcotest.(check bool) "null left id" true (Value.equal (impl.Op.merge impl.Op.init fwd) fwd);
  Alcotest.(check bool) "null right id" true (Value.equal (impl.Op.merge fwd impl.Op.init) fwd)

let test_op_faults () =
  let impl = Op.compile (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) in
  let bad () = ignore (impl.Op.merge (impl.Op.lift (Value.Int 1)) (Value.Str "garbage")) in
  (match bad () with
  | () -> Alcotest.fail "garbage accepted"
  | exception Value.Type_error _ -> ());
  (* Mismatched parameters fault as a type error, not a crash. *)
  let other = Op.compile (Op.Sketch_count_min { depth = 4; width = 64; seed = 5 }) in
  match impl.Op.merge (impl.Op.lift (Value.Int 1)) (other.Op.lift (Value.Int 2)) with
  | _ -> Alcotest.fail "mismatched sketch accepted"
  | exception Value.Type_error _ -> ()

let test_state_wire_size () =
  let cap spec =
    match Op.state_wire_size spec with Some c -> c | None -> Alcotest.fail "no cap"
  in
  Alcotest.(check bool) "cm cap positive" true
    (cap (Op.Sketch_count_min { depth = 4; width = 32; seed = 5 }) > 0);
  Alcotest.(check (option int)) "sum has no cap" None (Op.state_wire_size Op.Sum)

(* ------------------------------------------------------------------ *)
(* Packed kernels against the decode → operate → encode oracle. Inputs
   straddle every sparse↔dense switch: HLL around m/3 non-zero registers
   (b=4: ~6 keys, b=9: ~207, b=11: ~830) and Count-Min/AGMS around 64/80
   non-zero cells (~22 keys per operand). *)

let cm_merge a b = Cm.to_string (Cm.merge (Cm.of_string a) (Cm.of_string b))

let agms_merge a b = Agms.to_string (Agms.merge (Agms.of_string a) (Agms.of_string b))

let hll_merge a b = Hll.to_string (Hll.merge (Hll.of_string a) (Hll.of_string b))

(* [Ok result] or [Error ()] on a [Failure "sketch: …"]; any other
   exception escapes and fails the test. *)
let outcome f =
  match f () with
  | s -> Ok s
  | exception Failure msg when String.starts_with ~prefix:"sketch: " msg -> Error ()

let same_outcome kernel oracle = outcome kernel = outcome oracle

(* The wire layouts, spelled out independently of the codec: header
   bytes (through the tag), widths of the sparse count, index and cell,
   and the cell count read from the parameters. *)
type form = { header : int; count_w : int; idx_w : int; cell_w : int; cells : string -> int }

let grid_form =
  {
    header = 13;
    count_w = 4;
    idx_w = 4;
    cell_w = 4;
    cells = (fun w -> String.get_uint8 w 1 * String.get_uint16_be w 2);
  }

let hll_form = { header = 11; count_w = 2; idx_w = 2; cell_w = 1; cells = (fun w -> 1 lsl String.get_uint8 w 1) }

(* Re-encode a valid wire string in a forced form, ignoring which one is
   smaller: the decoders accept both, so the kernels must too. *)
let reencode f ~dense w =
  let get wd pos =
    match wd with
    | 1 -> String.get_uint8 w pos
    | 2 -> String.get_uint16_be w pos
    | _ -> Int32.to_int (String.get_int32_be w pos)
  in
  let put wd b pos v =
    match wd with
    | 1 -> Bytes.set_uint8 b pos v
    | 2 -> Bytes.set_uint16_be b pos v
    | _ -> Bytes.set_int32_be b pos (Int32.of_int v)
  in
  let entry k = f.header + f.count_w + (k * (f.idx_w + f.cell_w)) in
  let cells = Array.make (f.cells w) 0 in
  if w.[f.header - 1] = '\001' then
    for k = 0 to get f.count_w f.header - 1 do
      cells.(get f.idx_w (entry k)) <- get f.cell_w (entry k + f.idx_w)
    done
  else Array.iteri (fun i _ -> cells.(i) <- get f.cell_w (f.header + (i * f.cell_w))) cells;
  let nz = List.filter (fun i -> cells.(i) <> 0) (List.init (Array.length cells) Fun.id) in
  let nnz = List.length nz in
  let body = if dense then Array.length cells * f.cell_w else entry nnz - f.header in
  let b = Bytes.make (f.header + body) '\000' in
  Bytes.blit_string w 0 b 0 (f.header - 1);
  if dense then Array.iteri (fun i c -> put f.cell_w b (f.header + (i * f.cell_w)) c) cells
  else begin
    Bytes.set b (f.header - 1) '\001';
    put f.count_w b f.header nnz;
    List.iteri
      (fun k i ->
        put f.idx_w b (entry k) i;
        put f.cell_w b (entry k + f.idx_w) cells.(i))
      nz
  end;
  Bytes.to_string b

(* A family's valid wire strings: canonical, or forced into either form. *)
let wire_gen f ~keys encode =
  QCheck.Gen.(
    map2
      (fun ks form ->
        let w = encode ks in
        match form with 0 -> w | 1 -> reencode f ~dense:true w | _ -> reencode f ~dense:false w)
      keys (int_bound 3))

let keys_upto hi = QCheck.Gen.(list_size (int_range 0 hi) (int_range 0 1_000_000))

let cm_wire = wire_gen grid_form ~keys:(keys_upto 50) (fun ks -> Cm.to_string (cm_of ks))

let agms_wire = wire_gen grid_form ~keys:(keys_upto 50) (fun ks -> Agms.to_string (agms_of ks))

let hll_wire b =
  wire_gen hll_form ~keys:(keys_upto (3 * (1 lsl b) / 5)) (fun ks -> Hll.to_string (hll_of ~b ks))

let prop_packed name gen kernel oracle =
  QCheck.Test.make ~name:(name ^ " = oracle") ~count:200
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (a, b) -> same_outcome (fun () -> kernel a b) (fun () -> oracle a b))

let packed_tests =
  [
    prop_packed "cm merge_packed" cm_wire Cm.merge_packed cm_merge;
    prop_packed "agms merge_packed" agms_wire Agms.merge_packed agms_merge;
  ]
  @ List.map
      (fun b -> prop_packed (Printf.sprintf "hll b=%d merge_packed" b) (hll_wire b) Hll.merge_packed hll_merge)
      [ 4; 9; 11 ]

(* A deterministic sweep across every sparse↔dense switch: the two
   halves of n keys merged, for n stepping through the threshold, must
   match the oracle and produce both wire forms. *)
let test_packed_switches () =
  let sweep name f ~upto ~step encode kernel oracle =
    let forms = ref [] in
    for i = 0 to upto / step do
      let n = i * step in
      let keys lo hi = List.init (hi - lo) (fun k -> (lo + k) * 7919) in
      let a = encode (keys 0 (n / 2)) and b = encode (keys (n / 2) n) in
      let out = kernel a b in
      Alcotest.(check string) (Printf.sprintf "%s n=%d" name n) (oracle a b) out;
      forms := out.[f.header - 1] :: !forms
    done;
    Alcotest.(check int) (name ^ " reaches both forms") 2
      (List.length (List.sort_uniq Char.compare !forms))
  in
  sweep "cm" grid_form ~upto:60 ~step:2 (fun ks -> Cm.to_string (cm_of ks)) Cm.merge_packed cm_merge;
  sweep "agms" grid_form ~upto:60 ~step:2 (fun ks -> Agms.to_string (agms_of ks)) Agms.merge_packed agms_merge;
  List.iter
    (fun b ->
      sweep (Printf.sprintf "hll b=%d" b) hll_form ~upto:(1 lsl b) ~step:(max 1 ((1 lsl b) / 64))
        (fun ks -> Hll.to_string (hll_of ~b ks))
        Hll.merge_packed hll_merge)
    [ 4; 9; 11 ]

(* The form rule checked from outside the codec: sparse iff strictly
   smaller. At b=9 a tie falls at exactly 170 registers (2 + 3·170 =
   512), which one-key-at-a-time growth is bound to hit. *)
let test_form_rule () =
  let t = Hll.create ~b:9 ~seed:3 in
  let key = ref 0 and seen_tie = ref false in
  while not !seen_tie do
    Hll.add t ~key:!key;
    incr key;
    let w = Hll.to_string t in
    let nnz =
      if w.[10] = '\001' then String.get_uint16_be w 11
      else String.fold_left (fun acc c -> if c <> '\000' then acc + 1 else acc) 0 (String.sub w 11 512)
    in
    let want = if 2 + (3 * nnz) < 512 then '\001' else '\000' in
    Alcotest.(check char) (Printf.sprintf "form at %d registers" nnz) want w.[10];
    Alcotest.(check char) "merge_packed keeps the form" want (Hll.merge_packed w w).[10];
    if nnz = 170 then seen_tie := true
  done

let prop_singleton =
  QCheck.Test.make ~name:"singletons = create + add + to_string" ~count:300
    QCheck.(
      make Gen.(quad (int_range 1 8) (int_range 1 64) (int_range 3 17) (pair (int_range (-2) 1_000_000) int)))
    (fun (rows, cols, b, (seed, key)) ->
      let cm () =
        let t = Cm.create ~depth:rows ~width:cols ~seed in
        Cm.add t ~key ~w:1;
        Cm.to_string t
      in
      let agms () =
        let t = Agms.create ~rows ~cols ~seed in
        Agms.add t ~key ~w:1;
        Agms.to_string t
      in
      let hll () =
        let t = Hll.create ~b ~seed in
        Hll.add t ~key;
        Hll.to_string t
      in
      same_outcome (fun () -> Cm.singleton ~depth:rows ~width:cols ~seed key) cm
      && same_outcome (fun () -> Agms.singleton ~rows ~cols ~seed key) agms
      && same_outcome (fun () -> Hll.singleton ~b ~seed key) hll)

let test_packed_edges () =
  let check name kernel oracle = Alcotest.(check bool) name true (same_outcome kernel oracle) in
  let cm ~width ~seed keys =
    let t = Cm.create ~depth:4 ~width ~seed in
    List.iter (fun key -> Cm.add t ~key ~w:1) keys;
    Cm.to_string t
  in
  let cm32 = cm ~width:32 ~seed:11 [ 1; 2 ] and cm64 = cm ~width:64 ~seed:11 [ 1 ] in
  let cm_seed = cm ~width:32 ~seed:12 [ 1 ] in
  let h9 = Hll.to_string (hll_of ~b:9 [ 1; 2 ]) and h10 = Hll.to_string (hll_of ~b:10 [ 1; 2 ]) in
  check "cm width mismatch" (fun () -> Cm.merge_packed cm32 cm64) (fun () -> cm_merge cm32 cm64);
  check "cm seed mismatch" (fun () -> Cm.merge_packed cm32 cm_seed) (fun () -> cm_merge cm32 cm_seed);
  check "hll precision mismatch" (fun () -> Hll.merge_packed h9 h10) (fun () -> hll_merge h9 h10);
  check "cross-family" (fun () -> Agms.merge_packed cm32 cm32) (fun () -> agms_merge cm32 cm32);
  (* A cell pushed past 32 bits faults instead of wrapping. *)
  let big = Cm.create ~depth:1 ~width:1 ~seed:0 in
  Cm.add big ~key:0 ~w:0x7FFFFFFF;
  let big = Cm.to_string big in
  check "i32 overflow" (fun () -> Cm.merge_packed big big) (fun () -> cm_merge big big);
  (* Op level: Null is the identity. *)
  let impl = Op.compile (Op.Sketch_count_min { depth = 4; width = 32; seed = 11 }) in
  let x = Value.Str cm32 in
  Alcotest.(check bool) "null merge left" true (Value.equal (impl.Op.merge Value.Null x) x);
  Alcotest.(check bool) "null merge right" true (Value.equal (impl.Op.merge x Value.Null) x)

(* ------------------------------------------------------------------ *)
(* Fuzzing: arbitrary bytes, truncations, extensions and single-byte
   mutations of valid encodings. The decoders (run inside each oracle)
   and the kernels may only raise [Failure "sketch: …"], and a kernel
   accepts exactly what its oracle accepts; through [Op.compile] the
   only exception is a type error. *)

let mutate_gen valid =
  QCheck.Gen.(
    valid >>= fun w ->
    let n = String.length w in
    let set i c =
      let b = Bytes.of_string w in
      Bytes.set b i c;
      Bytes.to_string b
    in
    frequency
      [
        (2, map (fun k -> String.sub w 0 k) (int_bound (n - 1)));
        (1, map (fun extra -> w ^ extra) (string_size ~gen:char (int_range 1 4)));
        (4, map2 set (int_bound (n - 1)) char);
        (* Off-by-one edits reach counts, tags and ascending indices
           far more often than uniform bytes. *)
        ( 4,
          map2
            (fun i d -> set i (Char.chr ((Char.code w.[i] + d) land 255)))
            (int_bound (n - 1)) (oneofl [ -1; 1 ]) );
        (1, string_size ~gen:char (int_range 0 40));
        (1, map (fun s -> String.make 1 w.[0] ^ s) (string_size ~gen:char (int_range 0 40)));
      ])

let prop_fuzz name valid kernels =
  QCheck.Test.make ~name:(name ^ " fuzz: decoder and kernels") ~count:500
    (QCheck.make QCheck.Gen.(triple (mutate_gen valid) valid bool))
    (fun (bad, good, bad_first) ->
      let a, b = if bad_first then (bad, good) else (good, bad) in
      List.for_all
        (fun (kernel, oracle) -> same_outcome (fun () -> kernel a b) (fun () -> oracle a b))
        kernels)

let fuzz_tests =
  [
    prop_fuzz "cm" cm_wire [ (Cm.merge_packed, cm_merge) ];
    prop_fuzz "agms" agms_wire [ (Agms.merge_packed, agms_merge) ];
    prop_fuzz "hll" (hll_wire 9) [ (Hll.merge_packed, hll_merge) ];
  ]

let prop_fuzz_op =
  let specs =
    [
      Op.Sketch_count_min { depth = 4; width = 32; seed = 11 };
      Op.Sketch_agms { rows = 5; cols = 32; seed = 11 };
      Op.Sketch_hll { b = 9; seed = 11 };
    ]
  in
  let wire = QCheck.Gen.oneof [ cm_wire; agms_wire; hll_wire 9 ] in
  let value =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun s -> Value.Str s) (mutate_gen wire));
          (2, map (fun s -> Value.Str s) wire);
          (1, return Value.Null);
          (1, map (fun i -> Value.Int i) int);
        ])
  in
  QCheck.Test.make ~name:"op fuzz: only type errors" ~count:500
    (QCheck.make QCheck.Gen.(triple value value (int_bound 2)))
    (fun (a, b, which) ->
      let impl = Op.compile (List.nth specs which) in
      let only_type_errors f = match f () with _ -> () | exception Value.Type_error _ -> () in
      only_type_errors (fun () -> impl.Op.lift a);
      only_type_errors (fun () -> impl.Op.merge a b);
      only_type_errors (fun () -> impl.Op.finalize a);
      true)

let tests =
  [
    QCheck_alcotest.to_alcotest (prop_comm "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_union "cm" cm_of Cm.to_string Cm.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "cm" cm_of Cm.to_string Cm.of_string);
    QCheck_alcotest.to_alcotest prop_cm_query_bounds;
    QCheck_alcotest.to_alcotest (prop_comm "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_union "agms" agms_of Agms.to_string Agms.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "agms" agms_of Agms.to_string Agms.of_string);
    QCheck_alcotest.to_alcotest (prop_comm "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_assoc "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_union "hll" hll_of Hll.to_string Hll.merge);
    QCheck_alcotest.to_alcotest (prop_roundtrip "hll" hll_of Hll.to_string Hll.of_string);
    QCheck_alcotest.to_alcotest prop_hll_idempotent;
    Alcotest.test_case "hll accuracy at b=12" `Quick test_hll_accuracy;
    Alcotest.test_case "hll small-range correction" `Quick test_hll_small_range;
    Alcotest.test_case "agms f2 accuracy" `Quick test_agms_accuracy;
    Alcotest.test_case "codec rejects malformed input" `Quick test_codec_rejects;
    Alcotest.test_case "wire size within planner cap" `Quick test_wire_caps;
    Alcotest.test_case "op-level hll" `Quick test_op_hll;
    Alcotest.test_case "op merge order byte-identical" `Quick test_op_merge_order_bytes;
    Alcotest.test_case "op faults are type errors" `Quick test_op_faults;
    Alcotest.test_case "state wire size caps" `Quick test_state_wire_size;
    Alcotest.test_case "packed kernels cross both forms" `Quick test_packed_switches;
    Alcotest.test_case "packed kernel edge cases" `Quick test_packed_edges;
    Alcotest.test_case "sparse only when strictly smaller" `Quick test_form_rule;
    QCheck_alcotest.to_alcotest prop_singleton;
    QCheck_alcotest.to_alcotest prop_fuzz_op;
  ]
  @ List.map QCheck_alcotest.to_alcotest (packed_tests @ fuzz_tests)
