(* mortar-lint: determinism & correctness static analysis.

   Usage: lint [OPTIONS] [PATH ...]

   PATHs default to the four source roots. Directories are scanned
   recursively (skipping _build and the lint fixtures); files are linted
   as given. Three phases run: the syntactic rules (D1-D6, D10) over the
   Parsetree of every .ml, the typed rules (D7-D9) over every compiler
   .cmt artifact found under the same roots (or under
   _build/default/<root> when invoked from the repo root), and the
   dead-export rule (D11), which checks each .cmti under those roots
   against the references of every .cmt in the build root — build
   first (dune build @check writes the .cmt of every executable), or
   pass --no-typed, to control the typed passes. Exit status: 0 clean,
   1 findings, 2 errors.

   Findings are suppressed inline with an allow comment (the marker
   "lint:" followed by the word "allow" and the rule codes, plus a
   reason) on the offending line or the line above; known debt is
   grandfathered in the baseline file (one [CODE FILE:LINE] per line,
   regenerate with --update-baseline). Suppressions that shield nothing
   are reported as warnings — or as failures under
   --strict-suppressions, which is how CI keeps the allow-list honest. *)

let usage =
  "usage: lint [--baseline FILE] [--update-baseline] [--json FILE|-] [--github]\n\
  \            [--strict-suppressions] [--no-typed] [--source-root DIR] [--quiet]\n\
  \            [PATH ...]"

let () =
  let baseline = ref None in
  let update = ref false in
  let quiet = ref false in
  let json = ref None in
  let github = ref false in
  let strict_supp = ref false in
  let no_typed = ref false in
  let source_root = ref "." in
  let paths = ref [] in
  let spec =
    [
      ( "--baseline",
        Arg.String (fun f -> baseline := Some f),
        "FILE subtract findings listed in FILE" );
      ( "--update-baseline",
        Arg.Set update,
        " rewrite the baseline file with the current findings" );
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE write the report as JSON to FILE ('-' for stdout)" );
      ( "--github",
        Arg.Set github,
        " emit GitHub Actions ::error/::warning annotations" );
      ( "--strict-suppressions",
        Arg.Set strict_supp,
        " fail (exit 1) on stale or malformed suppressions" );
      ("--no-typed", Arg.Set no_typed, " skip the typed passes (D7-D9, D11) entirely");
      ( "--source-root",
        Arg.Set_string source_root,
        "DIR resolve cmt-recorded source paths against DIR (default .)" );
      ("--quiet", Arg.Set quiet, " only set the exit status, print nothing");
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
    if !no_typed then []
    else
      List.concat_map
        (fun p -> [ p; Filename.concat (Filename.concat "_build" "default") p ])
        paths
      |> List.filter Sys.file_exists
  in
  (* D11 counts callers across the whole build root, found the same
     way: the working directory inside dune, _build/default outside. *)
  let universe =
    if !no_typed then None
    else
      let build_root = Filename.concat "_build" "default" in
      Some
        {
          Mortar_lint.Driver.roots = [ (if Sys.file_exists build_root then build_root else ".") ];
          test_dir = "test";
        }
  in
  let report =
    Mortar_lint.Driver.run ?baseline_file:!baseline ~cmt_paths ?universe
      ~source_root:!source_root ~paths ()
  in
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
        "{\"findings\":%s,\"baselined\":%s,\"stale\":%s,\"typed_modules\":%d}\n"
        (arr report.findings) (arr report.baselined) (arr report.stale)
        report.typed_modules
    in
    if dest = "-" then print_string body
    else begin
      let oc = open_out dest in
      output_string oc body;
      close_out oc
    end);
  if !github then begin
    let annotate level (d : Mortar_lint.Diag.t) =
      Printf.printf "::%s file=%s,line=%d,col=%d::[%s] %s\n" level d.file
        (max d.line 1) (max d.col 1) d.code d.message
    in
    List.iter (annotate "error") report.findings;
    List.iter (annotate "warning") report.stale
  end;
  match (!update, !baseline) with
  | true, Some file ->
    let oc = open_out file in
    output_string oc "# mortar-lint baseline: grandfathered findings, one per line.\n";
    output_string oc "# Regenerate with: dune exec bin/lint.exe -- --baseline ";
    output_string oc (file ^ " --update-baseline\n");
    List.iter
      (fun d -> output_string oc (Mortar_lint.Suppress.baseline_entry d ^ "\n"))
      (report.findings @ report.baselined);
    close_out oc;
    Printf.printf "lint: wrote %d entries to %s\n"
      (List.length report.findings + List.length report.baselined)
      file
  | true, None ->
    prerr_endline "lint: --update-baseline requires --baseline FILE";
    exit 2
  | false, _ ->
    if not !quiet then begin
      List.iter (fun d -> print_endline (Mortar_lint.Diag.to_string d)) report.findings;
      List.iter
        (fun d ->
          print_endline ("warning: " ^ Mortar_lint.Diag.to_string d))
        report.stale;
      (match (report.findings, report.baselined) with
      | [], [] -> ()
      | [], b -> Printf.printf "lint: clean (%d baselined)\n" (List.length b)
      | f, b ->
        Printf.printf "lint: %d finding(s), %d baselined\n" (List.length f)
          (List.length b));
      if report.units_without_cmt > 0 then
        Printf.printf "lint: D11 skipped — %d units without .cmt (run dune build @check)\n"
          report.units_without_cmt;
      if report.typed_modules = 0 && not !no_typed then
        print_endline
          "lint: typed passes (D7-D9, D11) covered 0 modules — build first so .cmt \
           artifacts exist"
      else if not !quiet then
        Printf.printf "lint: typed pass covered %d module(s)\n" report.typed_modules
    end;
    if report.findings <> [] || (!strict_supp && report.stale <> []) then exit 1
