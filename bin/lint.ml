(* mortar-lint: determinism & correctness static analysis.

   Usage: lint [OPTIONS] [DIR ...]

   DIRs default to the four source roots. Lint reads the compiler .cmt
   artifacts under each DIR (or under _build/default/DIR when invoked
   from the repo root), so build first: dune build @check writes the
   .cmt of every executable too. Two phases run: every rule but D11-D12
   over each module's typed tree, then the dead-code rules (D11 for
   vals, D12 for constructors and record fields), which check each
   .cmti under the DIRs against the uses in every .cmt of the build
   root. Exit status: 0 clean, 1 findings or stale suppressions, 2
   errors (a DIR that is not a directory, no .cmt under the DIRs, an
   unreadable artifact).

   Findings are suppressed inline with an allow comment (the marker
   "lint:" followed by the word "allow" and the rule codes, plus a
   reason) on the offending line or the line above; nothing else
   suppresses a finding. An allow comment that shields nothing, or one
   that does not parse, fails the run like a finding. *)

let usage = "usage: lint [--json FILE|-] [--github] [DIR ...]"

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
  List.iter
    (fun p ->
      if not (Sys.file_exists p && Sys.is_directory p) then begin
        Printf.eprintf "lint: %s is not a directory\n%s\n" p usage;
        exit 2
      end)
    paths;
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
  if report.typed_modules = 0 then begin
    Printf.eprintf "lint: no .cmt under %s — build first (dune build @check)\n"
      (String.concat " " paths);
    exit 2
  end;
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
  Printf.printf "lint: covered %d module(s)\n" report.typed_modules;
  if report.findings <> [] || report.stale <> [] then exit 1
