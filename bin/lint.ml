(* mortar-lint: determinism & correctness static analysis.

   Usage: lint [OPTIONS] [PATH ...]

   PATHs default to the four source roots. Directories are scanned
   recursively (skipping _build and the lint fixtures); files are linted
   as given. Three phases run: the syntactic rules (D1-D6, D10) over the
   Parsetree of every .ml, the typed rules (D7-D9) over every compiler
   .cmt artifact found under the same roots (or under
   _build/default/<root> when invoked from the repo root), and the
   dead-code rules (D11 for vals, D12 for constructors and record
   fields), which check each .cmti under those roots against the uses in
   every .cmt of the build root — build first (dune build @check writes
   the .cmt of every executable). Exit
   status: 0 clean, 1 findings or stale suppressions, 2 errors.

   Findings are suppressed inline with an allow comment (the marker
   "lint:" followed by the word "allow" and the rule codes, plus a
   reason) on the offending line or the line above; nothing else
   suppresses a finding. An allow comment that shields nothing, or one
   that does not parse, fails the run like a finding. *)

let usage = "usage: lint [--json FILE|-] [--github] [PATH ...]"

let () =
  let json = ref None in
  let github = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE write the report as JSON to FILE ('-' for stdout)" );
      ( "--github",
        Arg.Set github,
        " emit GitHub Actions ::error annotations" );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin"; "bench"; "test" ] | ps -> ps
  in
  (* Where to look for cmts: the paths themselves (the dune @lint alias
     runs inside _build/default, where .objs dirs sit next to sources)
     plus _build/default/<path> for manual runs from the repo root. *)
  let cmt_paths =
    List.concat_map
      (fun p -> [ p; Filename.concat (Filename.concat "_build" "default") p ])
      paths
    |> List.filter Sys.file_exists
  in
  (* D11 and D12 count users across the whole build root, found the same
     way: the working directory inside dune, _build/default outside. *)
  let universe =
    let build_root = Filename.concat "_build" "default" in
    {
      Mortar_lint.Driver.roots = [ (if Sys.file_exists build_root then build_root else ".") ];
      test_dir = "test";
    }
  in
  let report = Mortar_lint.Driver.run ~cmt_paths ~universe ~paths () in
  List.iter (fun e -> Printf.eprintf "lint: %s\n" e) report.errors;
  if report.errors <> [] then exit 2;
  (match !json with
  | None -> ()
  | Some dest ->
    let arr ds =
      "[" ^ String.concat "," (List.map Mortar_lint.Diag.to_json ds) ^ "]"
    in
    let body =
      Printf.sprintf
        "{\"findings\":%s,\"stale\":%s,\"typed_modules\":%d}\n"
        (arr report.findings) (arr report.stale)
        report.typed_modules
    in
    if dest = "-" then print_string body
    else begin
      let oc = open_out dest in
      output_string oc body;
      close_out oc
    end);
  if !github then begin
    let annotate (d : Mortar_lint.Diag.t) =
      Printf.printf "::error file=%s,line=%d,col=%d::[%s] %s\n" d.file
        (max d.line 1) (max d.col 1) d.code d.message
    in
    List.iter annotate (report.findings @ report.stale)
  end;
  List.iter (fun d -> print_endline (Mortar_lint.Diag.to_string d)) report.findings;
  List.iter (fun d -> print_endline ("stale: " ^ Mortar_lint.Diag.to_string d)) report.stale;
  if report.findings <> [] then
    Printf.printf "lint: %d finding(s)\n" (List.length report.findings);
  if report.units_without_cmt > 0 then
    Printf.printf "lint: D11-D12 skipped — %d units without .cmt (run dune build @check)\n"
      report.units_without_cmt;
  (* Typed passes read the .cmt files under linted directories; explicit
     .ml arguments never get one, so an empty pass is news only when a
     directory was given. *)
  if report.typed_modules > 0 then
    Printf.printf "lint: typed pass covered %d module(s)\n" report.typed_modules
  else if List.exists Sys.is_directory paths then
    print_endline
      "lint: typed passes (D7-D9, D11-D12) covered 0 modules — build first so .cmt artifacts \
       exist";
  if report.findings <> [] || report.stale <> [] then exit 1
