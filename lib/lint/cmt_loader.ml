(* Discovery and loading of compiler [.cmt]/[.cmti] artifacts for the
   typed rules (D7-D9, D11-D12).

   Dune drops one [.cmt] per compiled module under
   [<dir>/.<lib>.objs/byte/] (and [.<exe>.eobjs/byte/] for
   executables), with a [.cmti] beside it when the module has an
   interface; given the same roots as the source scan, [scan] walks
   into those dot-directories and returns every artifact of the asked
   kind in a canonical order. [load] unmarshals one and hands back the
   typed AST plus the source path recorded at compile time (relative to
   the build root, e.g. "lib/sim/engine.ml") — which is how typed
   findings line up with the source files and their suppression
   comments.

   Loading is best-effort by design: a missing or stale artifact (wrong
   compiler magic, interrupted build) degrades the run to the syntactic
   rules for that module instead of failing it, and the driver reports
   how many modules the typed pass actually covered. *)

let skip_dirs = [ "_build"; ".git"; "lint_fixtures" ]

let rec scan_dir exts acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if List.mem entry skip_dirs then acc
           else scan_dir exts acc (Filename.concat path entry))
         acc
  else if List.exists (Filename.check_suffix path) exts then path :: acc
  else acc

let scan ?(exts = [ ".cmt" ]) paths =
  List.fold_left
    (fun acc p -> if Sys.file_exists p then scan_dir exts acc p else acc)
    [] paths
  |> List.sort_uniq compare

(* Units compiled to [.cmo] or [.cmx] with no [.cmt] in their [byte/]
   directory. A plain [dune build] leaves executables in this state
   ([bin/.mortar_cli.eobjs/byte] holds only [.cmi]/[.cmti]) until
   [dune build @check] writes the rest. *)
let units_without_cmt paths =
  let files = scan ~exts:[ ".cmt"; ".cmo"; ".cmx" ] paths in
  let expected f =
    let dir = Filename.dirname f in
    let dir =
      if Filename.basename dir = "native" then Filename.concat (Filename.dirname dir) "byte"
      else dir
    in
    Filename.concat dir (Filename.remove_extension (Filename.basename f) ^ ".cmt")
  in
  let cmts = Hashtbl.create 256 in
  List.iter (fun f -> if Filename.check_suffix f ".cmt" then Hashtbl.replace cmts f ()) files;
  List.filter (fun f -> not (Hashtbl.mem cmts f)) files
  |> List.map expected |> List.sort_uniq compare
  |> List.filter (fun cmt -> not (Hashtbl.mem cmts cmt))
  |> List.length

type loaded = {
  source : string; (* source path as recorded by the compiler *)
  modname : string; (* compilation unit, e.g. "Mortar_sim__Shard" *)
  structure : Typedtree.structure;
}

type interface = {
  intf_source : string; (* e.g. "lib/sim/engine.mli" *)
  intf_modname : string;
  signature : Typedtree.signature;
}

type outcome =
  | Ok_impl of loaded
  | Ok_intf of interface
  | Not_impl (* partial cmt: nothing to analyze *)
  | Unreadable of string

let load path =
  match Cmt_format.read_cmt path with
  | exception Sys_error e -> Unreadable e
  | exception End_of_file -> Unreadable (path ^ ": truncated cmt file")
  | exception Cmi_format.Error _ ->
    Unreadable (path ^ ": wrong compiler magic (stale artifact?)")
  | exception Failure e -> Unreadable (Printf.sprintf "%s: %s" path e)
  | info -> (
    let modname = info.Cmt_format.cmt_modname in
    match (info.Cmt_format.cmt_annots, info.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation structure, Some source -> Ok_impl { source; modname; structure }
    | Cmt_format.Interface signature, Some intf_source ->
      Ok_intf { intf_source; intf_modname = modname; signature }
    | _ -> Not_impl)
