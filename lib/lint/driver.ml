(* File discovery, parsing, the analysis phases, suppression filtering,
   reporting.

   Phase 1 (syntactic, D1-D6 and D10): directories given to [run] are scanned
   recursively for [.ml] files, skipping build products and the
   deliberately-broken lint fixtures; files given explicitly are always
   linted (that is how the fixture tests exercise the rules). The
   [.mli] files found the same way are not parsed, but their allow
   comments join the suppression tables (D11 and D12 findings sit in
   them).

   Phase 2 (typed, D7-D9): the same roots (or [cmt_paths], when given)
   are scanned for compiler [.cmt] artifacts — dune keeps them under
   [.<lib>.objs/byte/] next to the sources in the build tree — and the
   typed rules run over each module's typedtree. Typed findings are
   attributed to the source path the compiler recorded, so inline allow
   comments work identically for both phases. When no
   artifacts are found the typed pass degrades to a no-op and
   [typed_modules] reports 0, which callers can surface ("typed pass
   skipped: build first").

   Phase 3 (D11-D12, dead code, only when a [universe] is given): every
   [val], variant constructor and record field of an interface
   ([.cmti]) under the typed roots is checked against the uses in every
   [.cmt] of the universe — the whole build tree, so units outside the
   lint roots count as users. If any unit in the universe was compiled
   without its [.cmt] the use set would be incomplete, so the phase is
   skipped and [units_without_cmt] says why.

   Suppression hygiene: every allow comment is usage-tracked across all
   phases; the ones shielding nothing are reported as stale (S2), and
   comments carrying the lint marker that fail to parse are reported as
   malformed (S1) instead of being silently ignored. Allow
   comments for D7-D9 and D11-D12 are only judged stale in files the
   pass for their rule actually covered. *)

let skip_dirs = [ "_build"; ".git"; "lint_fixtures" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rec scan acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if List.mem entry skip_dirs then acc
           else scan acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    path :: acc
  else acc

let expand paths =
  List.fold_left
    (fun acc p -> if Sys.is_directory p then scan acc p else p :: acc)
    [] paths
  |> List.sort_uniq compare

let parse_impl path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  Parse.implementation lexbuf

(* The bench timing harness is the only module allowed on the wall clock. *)
let wallclock_allowed path = Filename.basename path = "bench_clock.ml"

(* lib/par is the sanctioned parallel runtime: the one place raw
   Domain/Atomic/Mutex/Condition use is deliberate (and shadowed by a
   sequential fallback on OCaml 4). The typed D7 rule skips it for the
   same reason: the pool internals ARE the shared state being fenced. *)
let multicore_allowed path = Filename.basename (Filename.dirname path) = "par"

(* Key used to correlate a source file across the two phases: the
   syntactic scan may reach it as "../lib/x.ml" while the compiler
   recorded "lib/x.ml" — strip leading ./ and ../ segments. *)
let canonical path =
  let rec strip p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      strip (String.sub p 2 (String.length p - 2))
    else if String.length p >= 3 && String.sub p 0 3 = "../" then
      strip (String.sub p 3 (String.length p - 3))
    else p
  in
  strip path

(* Where D11 and D12 look for users. *)
type universe = {
  roots : string list; (* every [.cmt] under these is a potential caller *)
  test_dir : string; (* callers whose source lies under this directory are tests *)
}

type report = {
  findings : Diag.t list; (* unsuppressed: these fail the build *)
  stale : Diag.t list; (* S1 malformed / S2 stale allow comments: these fail it too *)
  errors : string list; (* unreadable / unparseable files *)
  typed_modules : int; (* modules the typed pass covered (0 = no cmts found) *)
  units_without_cmt : int; (* > 0: D11-D12 were skipped, their use set would be partial *)
}

(* Per-source-file suppression state shared by both phases. *)
type file_supp = {
  display : string; (* path as first seen, for reporting *)
  supp : Suppress.t;
  mutable typed_seen : bool; (* did the typed pass cover this file? *)
}

let run ?cmt_paths ?universe ?(source_root = ".") ~paths () =
  let files, interfaces =
    List.partition (fun f -> Filename.check_suffix f ".ml") (expand paths)
  in
  let parsed, errors =
    List.fold_left
      (fun (ok, errs) file ->
        match read_file file with
        | exception Sys_error e -> (ok, Printf.sprintf "%s: %s" file e :: errs)
        | text -> (
          match parse_impl file text with
          | ast -> ((file, text, ast) :: ok, errs)
          | exception exn ->
            (ok, Printf.sprintf "%s: parse error: %s" file (Printexc.to_string exn) :: errs)))
      ([], []) files
  in
  let parsed = List.rev parsed in
  let env = Rules.empty_env () in
  List.iter (fun (_, _, ast) -> Rules.collect_types env ast) parsed;
  (* Suppression tables, one per canonical source path. *)
  let supps : (string, file_supp) Hashtbl.t = Hashtbl.create 64 in
  let supp_of ~display text =
    let key = canonical display in
    match Hashtbl.find_opt supps key with
    | Some fs -> fs
    | None ->
      let fs = { display; supp = Suppress.of_source text; typed_seen = false } in
      Hashtbl.add supps key fs;
      fs
  in
  (* Recorded source paths resolve as recorded, then relative to
     [source_root]. Generated sources (e.g. dune's module aliases)
     resolve to nothing and simply carry no suppressions. *)
  let supp_of_source source =
    let text =
      List.find_map
        (fun p -> if Sys.file_exists p then Some (read_file p) else None)
        [ source; Filename.concat source_root source ]
    in
    supp_of ~display:source (Option.value text ~default:"")
  in
  let errors =
    List.fold_left
      (fun errs file ->
        match read_file file with
        | text ->
          ignore (supp_of ~display:file text);
          errs
        | exception Sys_error e -> Printf.sprintf "%s: %s" file e :: errs)
      errors interfaces
  in
  (* ---- phase 1: syntactic rules ---------------------------------- *)
  let syntactic =
    List.concat_map
      (fun (file, text, ast) ->
        let fs = supp_of ~display:file text in
        Rules.run_rules env ~allow_wallclock:(wallclock_allowed file)
          ~allow_multicore:(multicore_allowed file) ast
        |> List.filter (fun (d : Diag.t) ->
               not (Suppress.allows fs.supp ~line:d.line ~code:d.code)))
      parsed
  in
  (* ---- phase 2: typed rules over cmt artifacts -------------------- *)
  let cmt_roots = match cmt_paths with Some ps -> ps | None -> paths in
  let cmts = Cmt_loader.scan cmt_roots in
  let tenv = Typed_rules.empty_tenv () in
  let loaded, errors =
    List.fold_left
      (fun (ok, errs) path ->
        match Cmt_loader.load path with
        | Cmt_loader.Ok_impl l -> (l :: ok, errs)
        | Cmt_loader.Ok_intf _ | Cmt_loader.Not_impl -> (ok, errs)
        | Cmt_loader.Unreadable e -> (ok, e :: errs))
      ([], errors) cmts
  in
  (* Canonical analysis order, deduped by source (a module rebuilt into
     several contexts still has one source of truth). *)
  let loaded =
    let seen = Hashtbl.create 64 in
    List.sort (fun a b -> compare a.Cmt_loader.source b.Cmt_loader.source) loaded
    |> List.filter (fun (l : Cmt_loader.loaded) ->
           if Hashtbl.mem seen l.source then false
           else begin
             Hashtbl.add seen l.source ();
             true
           end)
  in
  List.iter
    (fun (l : Cmt_loader.loaded) ->
      Typed_rules.collect_types tenv ~modname:l.modname l.structure)
    loaded;
  Typed_rules.close_tenv tenv;
  let typed =
    List.concat_map
      (fun (l : Cmt_loader.loaded) ->
        let diags =
          Typed_rules.run_rules tenv ~allow_multicore:(multicore_allowed l.source)
            l.structure
        in
        let fs = supp_of_source l.source in
        fs.typed_seen <- true;
        List.filter
          (fun (d : Diag.t) -> not (Suppress.allows fs.supp ~line:d.line ~code:d.code))
          diags)
      loaded
  in
  (* ---- phase 3: dead code over the whole build ------------------- *)
  let units_without_cmt, dead, errors =
    match universe with
    | None -> (0, [], errors)
    | Some u -> (
      match Cmt_loader.units_without_cmt u.roots with
      | n when n > 0 -> (n, [], errors)
      | _ ->
        let refs = Typed_rules.empty_refs () in
        let intfs, errors =
          List.fold_left
            (fun (intfs, errs) path ->
              match Cmt_loader.load path with
              | Cmt_loader.Ok_impl l ->
                Typed_rules.collect_refs refs ~modname:l.modname ~source:l.source
                  l.structure;
                (intfs, errs)
              | Cmt_loader.Ok_intf i -> (i :: intfs, errs)
              | Cmt_loader.Not_impl -> (intfs, errs)
              | Cmt_loader.Unreadable e -> (intfs, e :: errs))
            ([], errors)
            (Cmt_loader.scan u.roots @ Cmt_loader.scan ~exts:[ ".cmti" ] cmt_roots)
        in
        let intfs =
          List.sort_uniq
            (fun (a : Cmt_loader.interface) b -> compare a.intf_source b.intf_source)
            intfs
        in
        List.iter
          (fun (i : Cmt_loader.interface) -> (supp_of_source i.intf_source).typed_seen <- true)
          intfs;
        let is_test = String.starts_with ~prefix:(u.test_dir ^ "/") in
        let sigs =
          List.map (fun (i : Cmt_loader.interface) -> (i.intf_modname, i.signature)) intfs
        in
        let dead =
          Typed_rules.dead_exports refs ~is_test sigs
          @ Typed_rules.dead_type_parts refs ~is_test sigs
          |> List.filter (fun (d : Diag.t) ->
                 not (Suppress.allows (supp_of_source d.file).supp ~line:d.line ~code:d.code))
        in
        (0, dead, errors))
  in
  (* ---- suppression hygiene --------------------------------------- *)
  let typed_codes = [ "D7"; "D8"; "D9"; "D11"; "D12" ] in
  let stale = ref [] in
  let all_supps =
    Hashtbl.fold (fun _ fs acc -> fs :: acc) supps []
    |> List.sort (fun a b -> compare a.display b.display)
  in
  List.iter
    (fun fs ->
      let checkable code = fs.typed_seen || not (List.mem code typed_codes) in
      List.iter
        (fun (line, what) ->
          stale :=
            {
              Diag.code = "S1";
              file = fs.display;
              line;
              col = 0;
              message = Printf.sprintf "malformed lint comment: %s" what;
            }
            :: !stale)
        (Suppress.malformed fs.supp);
      List.iter
        (fun (line, code) ->
          stale :=
            {
              Diag.code = "S2";
              file = fs.display;
              line;
              col = 0;
              message =
                Printf.sprintf
                  "stale suppression: no %s finding here anymore — remove the allow \
                   comment (or narrow its code list)"
                  code;
            }
            :: !stale)
        (Suppress.stale_entries fs.supp ~checkable))
    all_supps;
  {
    findings = List.sort Diag.order (syntactic @ typed @ dead);
    stale = List.sort Diag.order !stale;
    errors = List.rev errors;
    typed_modules = List.length loaded;
    units_without_cmt;
  }
