(* mortar-lint: fixture goldens (one positive + one suppressed negative
   per rule) and the no-regression gate over the real tree.

   The fixtures live under [lint_fixtures/typed/] — deliberately broken
   but type-correct code, compiled so the rules can read its [.cmt]
   artifacts — with the expected diagnostics checked in as a golden
   file. *)

module Driver = Mortar_lint.Driver
module Diag = Mortar_lint.Diag

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let typed_cmt_dir = "lint_fixtures/typed/.lint_typed_fixtures.objs/byte"

(* D11's and D12's users: every fixture library, with d11_tests/ as test
   code. *)
let fixture_universe roots =
  { Driver.roots; test_dir = "test/lint_fixtures/typed/d11_tests" }

(* The fixture cmts exist whenever the test itself was built by dune
   (the libraries are link dependencies); the guard keeps ad-hoc runs
   from odd working directories from failing spuriously. *)
let with_typed_report f =
  if Sys.file_exists typed_cmt_dir then
    f
      (Driver.run ~cmt_paths:[ typed_cmt_dir ]
         ~universe:(fixture_universe [ "lint_fixtures/typed" ])
         ~paths:[] ())

let fires code (report : Driver.report) =
  List.exists (fun (d : Diag.t) -> d.code = code) report.findings

(* The rules that once ran on the parse tree, before the typed pass took
   them over; the two goldens below split the one golden file by them. *)
let syntactic_codes = [ "D1"; "D2"; "D3"; "D4"; "D5"; "D6"; "D10" ]

let is_syntactic code = List.mem code syntactic_codes

let line_code line =
  match String.index_opt line '[' with
  | None -> ""
  | Some i -> (
      match String.index_from_opt line i ']' with
      | None -> ""
      | Some j -> String.sub line (i + 1) (j - i - 1))

(* The golden lines whose rule [keep] selects, and the rendered findings
   of those rules. d6_pos.ml's Domain and Mutex cases exist only on
   OCaml >= 5 (see the fixture dune file). *)
let golden_split keep (report : Driver.report) =
  let ocaml5 = Sys.ocaml_version >= "5" in
  let golden = String.trim (read_file "lint_fixtures/typed/expected_typed.txt") in
  let want =
    String.split_on_char '\n' golden
    |> List.filter (fun line ->
           keep (line_code line)
           && (ocaml5
              || not
                   (List.exists
                      (fun m -> Mortar_lint.Suppress.find_sub line m 0 <> None)
                      [ "'Domain."; "'Mutex." ])))
  in
  let got = List.filter (fun (d : Diag.t) -> keep d.code) report.findings in
  (String.concat "\n" want, Diag.render got)

(* Golden: the fixtures produce exactly the checked-in diagnostics —
   every rule fires, at the recorded positions. This test holds the
   D1-D6 and D10 lines; "typed fixture golden" holds the rest. *)
let test_fixture_golden () =
  with_typed_report (fun report ->
      Alcotest.(check (list string)) "no cmt load errors" [] report.Driver.errors;
      let want, got = golden_split is_syntactic report in
      Alcotest.(check string) "diagnostics match golden" want got)

(* The D7-D9, D11 and D12 lines of the golden, and every allow comment
   in the fixtures shields a finding. *)
let test_typed_golden () =
  with_typed_report (fun report ->
      Alcotest.(check (list string)) "no cmt load errors" [] report.Driver.errors;
      let want, got = golden_split (fun c -> not (is_syntactic c)) report in
      Alcotest.(check string) "typed diagnostics match golden" want got;
      Alcotest.(check string) "fixture allow comments are all live" ""
        (Diag.render report.Driver.stale);
      Alcotest.(check bool) "the pass covered the fixture modules" true
        (report.Driver.typed_modules >= 20))

(* Each rule has at least one finding among the positives... *)
let test_all_rules_fire () =
  with_typed_report (fun report ->
      List.iter
        (fun code ->
          Alcotest.(check bool) (Printf.sprintf "rule %s fires on its fixture" code) true
            (fires code report))
        syntactic_codes)

let neg_cmts names =
  List.map (fun n -> Filename.concat typed_cmt_dir ("lint_typed_fixtures__" ^ n ^ ".cmt")) names

(* Negative fixtures alone produce nothing: inline allows, specific
   handlers, explicit comparators and same-named local functions are all
   silent. *)
let test_suppressions_silence () =
  let negs =
    neg_cmts [ "D1_neg"; "D2_neg"; "D3_neg"; "D4_neg"; "D5_neg"; "D6_neg"; "D10_neg" ]
  in
  if List.for_all Sys.file_exists negs then begin
    let report = Driver.run ~cmt_paths:negs ~paths:[] () in
    Alcotest.(check string) "suppressed fixtures produce no findings" ""
      (Diag.render report.Driver.findings);
    Alcotest.(check string) "and leave no stale allow" "" (Diag.render report.Driver.stale)
  end

(* Zero unsuppressed findings on the real tree — both phases. Tests run
   from _build/default/test, so the tree root is one level up and the
   .objs cmt dirs sit next to the sources; the @lint alias in the root
   dune file runs the same scan hermetically — this is a belt-and-braces
   in-process check, skipped if the sources are not materialised next to
   the test. *)
let test_real_tree_clean () =
  let dirs =
    List.filter Sys.file_exists (List.map (Filename.concat "..") [ "lib"; "bin"; "bench" ])
  in
  if dirs = [] then ()
  else begin
    let report = Driver.run ~paths:dirs () in
    Alcotest.(check (list string)) "no cmt load errors" [] report.Driver.errors;
    Alcotest.(check string) "real tree has zero unsuppressed findings" ""
      (Diag.render report.Driver.findings);
    Alcotest.(check string) "real tree has zero stale suppressions" ""
      (Diag.render report.Driver.stale)
  end

let test_typed_rules_fire () =
  with_typed_report (fun report ->
      List.iter
        (fun code ->
          Alcotest.(check bool)
            (Printf.sprintf "rule %s fires on its fixture" code)
            true
            (fires code report))
        [ "D7"; "D8"; "D9" ])

(* The acceptance scenario: a deliberately introduced cross-shard
   Hashtbl leak is caught by D7, attributed to the right file. *)
let test_d7_catches_hashtbl_leak () =
  with_typed_report (fun report ->
      Alcotest.(check bool) "D7 flags the cross-shard Hashtbl capture" true
        (List.exists
           (fun (d : Diag.t) ->
             d.code = "D7"
             && Filename.basename d.file = "d7_pos.ml"
             && String.length d.message > 0)
           report.Driver.findings))

(* Negative fixtures alone produce nothing: outbox-accessor captures,
   exhaustive matches, cold branches and inline allows are all silent. *)
let test_typed_negatives_silent () =
  let negs = neg_cmts [ "D7_neg"; "D8_neg"; "D9_neg" ] in
  if List.for_all Sys.file_exists negs then begin
    let report = Driver.run ~cmt_paths:negs ~paths:[] () in
    Alcotest.(check string) "typed negatives are silent" ""
      (Diag.render report.Driver.findings)
  end

(* A D11 or D12 allow on an export that has since gained a production
   user is stale (S2): d11_outside/stale.mli allows [has_caller], which
   outside_user.ml calls, and [Built_outside], which it builds. *)
let test_d11_stale_allow () =
  let dir = "lint_fixtures/typed/d11_outside/.lint_d11_outside.objs/byte" in
  if Sys.file_exists dir then begin
    let report =
      Driver.run ~cmt_paths:[ dir ]
        ~universe:(fixture_universe [ "lint_fixtures/typed" ])
        ~paths:[] ()
    in
    Alcotest.(check string) "the called export is not a finding" ""
      (Diag.render report.Driver.findings);
    Alcotest.(check (list string)) "the allows on them are stale"
      [
        "test/lint_fixtures/typed/d11_outside/stale.mli:1 S2";
        "test/lint_fixtures/typed/d11_outside/stale.mli:3 S2";
      ]
      (List.map
         (fun (d : Diag.t) -> Printf.sprintf "%s:%d %s" d.file d.line d.code)
         report.Driver.stale)
  end

(* A unit compiled without its .cmt (an executable after a plain [dune
   build]) would hide its uses, so D11 and D12 report nothing and judge
   no allow of theirs stale until the build is complete. *)
let test_d11_skips_incomplete_build () =
  if Sys.file_exists typed_cmt_dir then begin
    let tmp = Filename.concat (Filename.get_temp_dir_name ()) "lint_d11_guard" in
    let native = Filename.concat (Filename.concat tmp ".exe.eobjs") "native" in
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ tmp; Filename.dirname native; native ];
    let cmx = Filename.concat native "dune__exe__Main.cmx" in
    close_out (open_out cmx);
    let report =
      Driver.run ~cmt_paths:[ typed_cmt_dir ]
        ~universe:(fixture_universe [ "lint_fixtures/typed"; tmp ])
        ~paths:[] ()
    in
    Sys.remove cmx;
    List.iter Sys.rmdir [ native; Filename.dirname native; tmp ];
    Alcotest.(check int) "one unit without .cmt" 1 report.Driver.units_without_cmt;
    let dead = List.filter (fun (d : Diag.t) -> d.code = "D11" || d.code = "D12") in
    Alcotest.(check string) "no D11 or D12 findings" ""
      (Diag.render (dead report.Driver.findings));
    Alcotest.(check string) "no D11 or D12 allow judged" "" (Diag.render report.Driver.stale);
    Alcotest.(check bool) "D7-D9 still ran" true
      (List.exists (fun (d : Diag.t) -> d.code = "D7") report.Driver.findings)
  end

let rec mlis dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then mlis p
         else if Filename.check_suffix p ".mli" then [ p ]
         else [])

(* Every D11 and D12 allow in lib/ names its test as
   [<file> "<test name>"], and that test exists. *)
let test_d11_allows_name_tests () =
  let root = Filename.concat (Sys.getcwd ()) ".." in
  let lib = Filename.concat root "lib" in
  if Sys.file_exists lib then begin
    let markers = List.map (fun code -> "lint" ^ ": allow " ^ code ^ " ") [ "D11"; "D12" ] in
    let named = ref 0 in
    List.iter
      (fun mli ->
        List.iter
          (fun line ->
            if List.exists (fun m -> Mortar_lint.Suppress.find_sub line m 0 <> None) markers
            then (
              match String.split_on_char '"' line with
              | before :: name :: _ ->
                let file =
                  String.trim before |> String.split_on_char ' ' |> List.rev |> List.hd
                in
                let text =
                  try read_file (Filename.concat root file) with Sys_error _ -> ""
                in
                incr named;
                Alcotest.(check bool)
                  (Printf.sprintf "%s names an existing test: %s %S" mli file name)
                  true
                  (Mortar_lint.Suppress.find_sub text ("\"" ^ name ^ "\"") 0 <> None)
              | _ -> Alcotest.failf "%s: allow without a quoted test name: %s" mli line))
          (String.split_on_char '\n' (read_file mli)))
      (mlis lib);
    Alcotest.(check bool) "the tree carries D11 and D12 allows" true (!named > 0)
  end

(* Exports kept only because a test reads them (D11/D12 oracle allows)
   may not grow back: the ceiling is the count the tree carries, so a
   new one has to replace an old one. *)
let oracle_allow_ceiling = 55

let test_oracle_allow_ceiling () =
  let lib = Filename.concat (Filename.concat (Sys.getcwd ()) "..") "lib" in
  if Sys.file_exists lib then begin
    let markers =
      List.map (fun code -> "lint" ^ ": allow " ^ code ^ " oracle") [ "D11"; "D12" ]
    in
    let oracle line =
      List.exists (fun m -> Mortar_lint.Suppress.find_sub line m 0 <> None) markers
    in
    let count =
      List.fold_left
        (fun acc mli ->
          acc + List.length (List.filter oracle (String.split_on_char '\n' (read_file mli))))
        0 (mlis lib)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%d oracle allows in lib/**/*.mli, at most %d" count oracle_allow_ceiling)
      true
      (count > 0 && count <= oracle_allow_ceiling)
  end

(* Stale-suppression hygiene at the driver level: an allow comment that
   shields nothing is reported (S2), a malformed one is reported (S1)
   — never silently ignored. The stale allow sits in the compiled
   [lint_fixtures/stale/] library; the malformed one in a scratch [.mli],
   whose allow comments join the tables although no phase covers it.
   The marker is concatenated so this test file does not itself carry
   live suppression comments. *)
let test_stale_and_malformed_reported () =
  let stale_dir = "lint_fixtures/stale/.lint_stale_fixture.objs/byte" in
  if Sys.file_exists stale_dir then begin
    let tmp = Filename.concat (Filename.get_temp_dir_name ()) "lint_malformed" in
    if not (Sys.file_exists tmp) then Sys.mkdir tmp 0o755;
    let mli = Filename.concat tmp "scratch.mli" in
    let oc = open_out mli in
    output_string oc ("(* lint" ^ ": allow determinism is hard *)\nval y : int\n");
    close_out oc;
    let report = Driver.run ~cmt_paths:[ stale_dir ] ~paths:[ tmp ] () in
    Sys.remove mli;
    Sys.rmdir tmp;
    Alcotest.(check int) "no findings in the fixtures" 0 (List.length report.Driver.findings);
    Alcotest.(check (list string)) "stale allow S2, malformed allow S1"
      [ "S1 scratch.mli:1"; "S2 stale_allow.ml:1" ]
      (List.map
         (fun (d : Diag.t) -> Printf.sprintf "%s %s:%d" d.code (Filename.basename d.file) d.line)
         report.Driver.stale)
  end

let tests =
  [
    Alcotest.test_case "fixture golden" `Quick test_fixture_golden;
    Alcotest.test_case "all six rules fire" `Quick test_all_rules_fire;
    Alcotest.test_case "suppressions silence" `Quick test_suppressions_silence;
    Alcotest.test_case "real tree clean" `Quick test_real_tree_clean;
    Alcotest.test_case "typed fixture golden" `Quick test_typed_golden;
    Alcotest.test_case "all three typed rules fire" `Quick test_typed_rules_fire;
    Alcotest.test_case "D7 catches cross-shard Hashtbl leak" `Quick
      test_d7_catches_hashtbl_leak;
    Alcotest.test_case "typed negatives silent" `Quick test_typed_negatives_silent;
    Alcotest.test_case "stale and malformed suppressions reported" `Quick
      test_stale_and_malformed_reported;
    Alcotest.test_case "D11 stale allow reported" `Quick test_d11_stale_allow;
    Alcotest.test_case "D11 skipped on an incomplete build" `Quick
      test_d11_skips_incomplete_build;
    Alcotest.test_case "D11 allows name existing tests" `Quick test_d11_allows_name_tests;
    Alcotest.test_case "oracle allows stay under their ceiling" `Quick test_oracle_allow_ceiling;
  ]
