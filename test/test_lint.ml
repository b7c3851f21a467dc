(* mortar-lint: fixture goldens (one positive + one suppressed negative
   per rule) and the no-regression gate over the real tree.

   The fixture files live under [lint_fixtures/] — deliberately broken
   code that is never compiled, only parsed by the analyzer — with the
   expected diagnostics checked in as a golden file. *)

module Driver = Mortar_lint.Driver
module Diag = Mortar_lint.Diag

let fixture_files =
  [
    "lint_fixtures/d1_pos.ml";
    "lint_fixtures/d1_neg.ml";
    "lint_fixtures/d2_pos.ml";
    "lint_fixtures/d2_neg.ml";
    "lint_fixtures/d3_pos.ml";
    "lint_fixtures/d3_neg.ml";
    "lint_fixtures/d4_pos.ml";
    "lint_fixtures/d4_neg.ml";
    "lint_fixtures/d5_pos.ml";
    "lint_fixtures/d5_neg.ml";
    "lint_fixtures/d6_pos.ml";
    "lint_fixtures/d6_neg.ml";
    "lint_fixtures/d10_pos.ml";
    "lint_fixtures/d10_neg.ml";
  ]

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Golden: the positive fixtures produce exactly the checked-in
   diagnostics — every rule fires, at the recorded positions. *)
let test_fixture_golden () =
  let report = Driver.run ~paths:fixture_files () in
  Alcotest.(check (list string)) "no parse errors" [] report.Driver.errors;
  let got = Diag.render report.Driver.findings in
  let want = String.trim (read_file "lint_fixtures/expected.txt") in
  Alcotest.(check string) "diagnostics match golden" want got

(* Each rule has at least one finding among the positives... *)
let test_all_rules_fire () =
  let report = Driver.run ~paths:fixture_files () in
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on its fixture" code)
        true
        (List.exists (fun (d : Diag.t) -> d.code = code) report.Driver.findings))
    [ "D1"; "D2"; "D3"; "D4"; "D5"; "D6"; "D10" ]

(* ... and the suppressed negatives are completely silent. *)
let test_suppressions_silence () =
  let negs = List.filter (fun f -> Filename.check_suffix f "_neg.ml") fixture_files in
  let report = Driver.run ~paths:negs () in
  Alcotest.(check int) "suppressed fixtures produce no findings" 0
    (List.length report.Driver.findings)

(* The baseline mechanism: a finding listed in a baseline file is
   reported as grandfathered, not live. *)
let test_baseline_grandfathers () =
  let tmp = Filename.temp_file "lint_baseline" ".txt" in
  let live = Driver.run ~paths:[ "lint_fixtures/d1_pos.ml" ] () in
  let oc = open_out tmp in
  List.iter
    (fun d -> output_string oc (Mortar_lint.Suppress.baseline_entry d ^ "\n"))
    live.Driver.findings;
  close_out oc;
  let report = Driver.run ~baseline_file:tmp ~paths:[ "lint_fixtures/d1_pos.ml" ] () in
  Sys.remove tmp;
  Alcotest.(check int) "no live findings" 0 (List.length report.Driver.findings);
  Alcotest.(check int) "all grandfathered"
    (List.length live.Driver.findings)
    (List.length report.Driver.baselined)

(* Zero unsuppressed findings on the real tree — both phases. Tests run
   from _build/default/test, so the tree root is one level up and the
   .objs cmt dirs sit next to the sources; the @lint alias in the root
   dune file runs the same scan hermetically — this is a belt-and-braces
   in-process check, skipped if the sources are not materialised next to
   the test. *)
let test_real_tree_clean () =
  let root = Filename.concat (Sys.getcwd ()) ".." in
  let dirs =
    List.filter Sys.file_exists
      (List.map (Filename.concat root) [ "lib"; "bin"; "bench" ])
  in
  if dirs = [] then ()
  else begin
    let report = Driver.run ~source_root:root ~paths:dirs () in
    Alcotest.(check (list string)) "no parse errors" [] report.Driver.errors;
    Alcotest.(check string) "real tree has zero unsuppressed findings" ""
      (Diag.render report.Driver.findings);
    Alcotest.(check string) "real tree has zero stale suppressions" ""
      (Diag.render report.Driver.stale)
  end

(* ------------------------------------------------------------------ *)
(* Typed rules (D7-D9, D11) over the compiled fixture libraries' cmts.  *)

let typed_cmt_dir = "lint_fixtures/typed/.lint_typed_fixtures.objs/byte"

(* D11's callers: every fixture library, with d11_tests/ as test code. *)
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
         ~source_root:".." ~paths:[] ())

let test_typed_golden () =
  with_typed_report (fun report ->
      Alcotest.(check (list string)) "no cmt load errors" [] report.Driver.errors;
      let got = Diag.render report.Driver.findings in
      let want = String.trim (read_file "lint_fixtures/typed/expected_typed.txt") in
      Alcotest.(check string) "typed diagnostics match golden" want got;
      Alcotest.(check string) "fixture allow comments are all live" ""
        (Diag.render report.Driver.stale);
      Alcotest.(check bool) "typed pass covered the fixture modules" true
        (report.Driver.typed_modules >= 6))

let test_typed_rules_fire () =
  with_typed_report (fun report ->
      List.iter
        (fun code ->
          Alcotest.(check bool)
            (Printf.sprintf "rule %s fires on its fixture" code)
            true
            (List.exists (fun (d : Diag.t) -> d.code = code) report.Driver.findings))
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
  let negs =
    List.map
      (Filename.concat typed_cmt_dir)
      [
        "lint_typed_fixtures__D7_neg.cmt";
        "lint_typed_fixtures__D8_neg.cmt";
        "lint_typed_fixtures__D9_neg.cmt";
      ]
  in
  if List.for_all Sys.file_exists negs then begin
    let report = Driver.run ~cmt_paths:negs ~source_root:".." ~paths:[] () in
    Alcotest.(check string) "typed negatives are silent" ""
      (Diag.render report.Driver.findings)
  end

(* A D11 allow on an export that has since gained a production caller
   is stale (S2): d11_outside/stale.mli allows [has_caller], which
   outside_user.ml calls. *)
let test_d11_stale_allow () =
  let dir = "lint_fixtures/typed/d11_outside/.lint_d11_outside.objs/byte" in
  if Sys.file_exists dir then begin
    let report =
      Driver.run ~cmt_paths:[ dir ]
        ~universe:(fixture_universe [ "lint_fixtures/typed" ])
        ~source_root:".." ~paths:[] ()
    in
    Alcotest.(check string) "the called export is not a finding" ""
      (Diag.render report.Driver.findings);
    Alcotest.(check (list string)) "the allow on it is stale"
      [ "test/lint_fixtures/typed/d11_outside/stale.mli:1 S2" ]
      (List.map
         (fun (d : Diag.t) -> Printf.sprintf "%s:%d %s" d.file d.line d.code)
         report.Driver.stale)
  end

(* A unit compiled without its .cmt (an executable after a plain [dune
   build]) would hide its calls, so D11 reports nothing and judges no
   D11 allow stale until the build is complete. *)
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
        ~source_root:".." ~paths:[] ()
    in
    Sys.remove cmx;
    List.iter Sys.rmdir [ native; Filename.dirname native; tmp ];
    Alcotest.(check int) "one unit without .cmt" 1 report.Driver.units_without_cmt;
    let d11 = List.filter (fun (d : Diag.t) -> d.code = "D11") in
    Alcotest.(check string) "no D11 findings" "" (Diag.render (d11 report.Driver.findings));
    Alcotest.(check string) "no D11 allow judged" "" (Diag.render report.Driver.stale);
    Alcotest.(check bool) "D7-D9 still ran" true
      (List.exists (fun (d : Diag.t) -> d.code = "D7") report.Driver.findings)
  end

(* Every D11 allow in lib/ names its test as [<file> "<test name>"], and
   that test exists. *)
let test_d11_allows_name_tests () =
  let root = Filename.concat (Sys.getcwd ()) ".." in
  let lib = Filename.concat root "lib" in
  if Sys.file_exists lib then begin
    let marker = "lint" ^ ": allow D11 " in
    let rec mlis dir =
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then mlis p
             else if Filename.check_suffix p ".mli" then [ p ]
             else [])
    in
    let named = ref 0 in
    List.iter
      (fun mli ->
        List.iter
          (fun line ->
            match Mortar_lint.Suppress.find_sub line marker 0 with
            | None -> ()
            | Some _ -> (
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
              | _ -> Alcotest.failf "%s: D11 allow without a quoted test name: %s" mli line))
          (String.split_on_char '\n' (read_file mli)))
      (mlis lib);
    Alcotest.(check bool) "the tree carries D11 allows" true (!named > 0)
  end

(* Stale-suppression hygiene at the driver level: an allow comment that
   shields nothing is reported (S2), a malformed one is reported (S1)
   — never silently ignored. The marker is concatenated so this test
   file does not itself carry live suppression comments. *)
let test_stale_and_malformed_reported () =
  let write name lines =
    let path = Filename.temp_file name ".ml" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let stale_file =
    write "lint_stale" [ "(* lint" ^ ": allow D1 nothing here reads the clock *)"; "let x = 1" ]
  in
  let malformed_file =
    write "lint_malformed" [ "(* lint" ^ ": allow determinism is hard *)"; "let y = 2" ]
  in
  let report = Driver.run ~paths:[ stale_file; malformed_file ] () in
  Sys.remove stale_file;
  Sys.remove malformed_file;
  Alcotest.(check int) "no findings in the scratch files" 0
    (List.length report.Driver.findings);
  Alcotest.(check bool) "stale allow reported as S2" true
    (List.exists (fun (d : Diag.t) -> d.code = "S2" && d.line = 1) report.Driver.stale);
  Alcotest.(check bool) "malformed allow reported as S1" true
    (List.exists (fun (d : Diag.t) -> d.code = "S1" && d.line = 1) report.Driver.stale)

let tests =
  [
    Alcotest.test_case "fixture golden" `Quick test_fixture_golden;
    Alcotest.test_case "all six rules fire" `Quick test_all_rules_fire;
    Alcotest.test_case "suppressions silence" `Quick test_suppressions_silence;
    Alcotest.test_case "baseline grandfathers" `Quick test_baseline_grandfathers;
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
  ]
