(* Artifact discovery, the analysis phases, suppression filtering,
   reporting.

   Phase 1 (every rule but D11-D12): [cmt_paths] (default: [paths])
   are scanned for compiler [.cmt] artifacts — dune keeps them under
   [.<lib>.objs/byte/] next to the sources in the build tree — and the
   rules run over each module's typedtree. Findings are attributed to
   the source path the compiler recorded, and a module's allow comments
   are read from the source copy dune compiled, next to its [.objs]
   directory. A tree without artifacts yields no finding and
   [typed_modules] reports 0, which callers surface ("build first").

   Phase 2 (D11-D12, dead code, only when a [universe] is given): every
   [val], variant constructor and record field of an interface
   ([.cmti]) under [cmt_paths] is checked against the uses in every
   [.cmt] of the universe — the whole build tree, so units outside the
   lint roots count as users. If any unit in the universe was compiled
   without its [.cmt] the use set would be incomplete, so the phase is
   skipped and [units_without_cmt] says why.

   Suppression hygiene: every allow comment is usage-tracked; the ones
   shielding nothing are reported as stale (S2), and comments carrying
   the lint marker that fail to parse are reported as malformed (S1)
   instead of being silently ignored. An allow comment is judged stale
   only in a file some phase covered. The [.mli] files under [paths]
   join the tables even when phase 2 does not run, so a malformed
   comment in one is still reported. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The bench timing harness is the only module allowed on the wall clock. *)
let wallclock_allowed path = Filename.basename path = "bench_clock.ml"

(* lib/par is the sanctioned parallel runtime: the one place raw
   Domain/Atomic/Mutex/Condition use is deliberate (and shadowed by a
   sequential fallback on OCaml 4). D7 skips it for the same reason:
   the pool internals ARE the shared state being fenced. *)
let multicore_allowed path = Filename.basename (Filename.dirname path) = "par"

(* Key used to correlate an [.mli] found under [paths] with the path
   the compiler recorded: the scan may reach it as "../lib/x.mli" while
   the compiler recorded "lib/x.mli" — strip leading ./ and ../
   segments. *)
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
  errors : string list; (* unreadable files and artifacts *)
  typed_modules : int; (* modules the rules covered (0 = no cmts found) *)
  units_without_cmt : int; (* > 0: D11-D12 were skipped, their use set would be partial *)
}

(* Per-source-file suppression state shared by both phases. *)
type file_supp = {
  display : string; (* path as first seen, for reporting *)
  supp : Suppress.t;
  mutable covered : bool; (* did a phase lint this file? *)
}

let run ?cmt_paths ?universe ~paths () =
  (* Suppression tables, one per canonical source path. *)
  let supps : (string, file_supp) Hashtbl.t = Hashtbl.create 64 in
  (* [display] is the source path for reports and the table key; its
     text is read from [file]. A source that is not there (a generated
     one, such as dune's module aliases) carries no suppressions. *)
  let supp_of ~display file =
    let key = canonical display in
    match Hashtbl.find_opt supps key with
    | Some fs -> fs
    | None ->
      let text = if Sys.file_exists file then read_file file else "" in
      let fs = { display; supp = Suppress.of_source text; covered = false } in
      Hashtbl.add supps key fs;
      fs
  in
  List.iter
    (fun mli -> ignore (supp_of ~display:mli mli))
    (Cmt_loader.scan ~exts:[ ".mli" ] paths);
  (* ---- phase 1: the rules over cmt artifacts --------------------- *)
  let errors = ref [] in
  let cmt_roots = match cmt_paths with Some ps -> ps | None -> paths in
  let loaded =
    List.filter_map
      (fun path ->
        match Cmt_loader.load path with
        | Cmt_loader.Ok_impl l -> Some l
        | Cmt_loader.Ok_intf _ | Cmt_loader.Not_impl -> None
        | Cmt_loader.Unreadable e ->
          errors := e :: !errors;
          None)
      (Cmt_loader.scan cmt_roots)
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
  let tenv = Typed_rules.empty_tenv () in
  List.iter
    (fun (l : Cmt_loader.loaded) ->
      Typed_rules.collect_types tenv ~modname:l.modname l.structure)
    loaded;
  Typed_rules.close_tenv tenv;
  let findings =
    List.concat_map
      (fun (l : Cmt_loader.loaded) ->
        let diags =
          Typed_rules.run_rules tenv ~modname:l.modname
            ~allow_wallclock:(wallclock_allowed l.source)
            ~allow_multicore:(multicore_allowed l.source) l.structure
        in
        let fs = supp_of ~display:l.source l.file in
        fs.covered <- true;
        List.filter
          (fun (d : Diag.t) -> not (Suppress.allows fs.supp ~line:d.line ~code:d.code))
          diags)
      loaded
  in
  (* ---- phase 2: dead code over the whole build ------------------- *)
  let units_without_cmt, dead =
    match universe with
    | None -> (0, [])
    | Some u -> (
      match Cmt_loader.units_without_cmt u.roots with
      | n when n > 0 -> (n, [])
      | _ ->
        let refs = Typed_rules.empty_refs () in
        let intfs =
          List.filter_map
            (fun path ->
              match Cmt_loader.load path with
              | Cmt_loader.Ok_impl l ->
                Typed_rules.collect_refs refs ~modname:l.modname ~source:l.source
                  l.structure;
                None
              | Cmt_loader.Ok_intf i -> Some i
              | Cmt_loader.Not_impl -> None
              | Cmt_loader.Unreadable e ->
                errors := e :: !errors;
                None)
            (Cmt_loader.scan u.roots @ Cmt_loader.scan ~exts:[ ".cmti" ] cmt_roots)
          |> List.sort_uniq (fun (a : Cmt_loader.interface) b ->
                 compare a.intf_source b.intf_source)
        in
        List.iter
          (fun (i : Cmt_loader.interface) ->
            (supp_of ~display:i.intf_source i.intf_file).covered <- true)
          intfs;
        let is_test = String.starts_with ~prefix:(u.test_dir ^ "/") in
        let sigs =
          List.map (fun (i : Cmt_loader.interface) -> (i.intf_modname, i.signature)) intfs
        in
        ( 0,
          Typed_rules.dead_exports refs ~is_test sigs
          @ Typed_rules.dead_type_parts refs ~is_test sigs
          |> List.filter (fun (d : Diag.t) ->
                 not (Suppress.allows (supp_of ~display:d.file d.file).supp ~line:d.line
                        ~code:d.code)) ))
  in
  (* ---- suppression hygiene --------------------------------------- *)
  let stale = ref [] in
  let all_supps =
    Hashtbl.fold (fun _ fs acc -> fs :: acc) supps []
    |> List.sort (fun a b -> compare a.display b.display)
  in
  List.iter
    (fun fs ->
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
        (Suppress.stale_entries fs.supp ~checkable:(fun _ -> fs.covered)))
    all_supps;
  {
    findings = List.sort Diag.order (findings @ dead);
    stale = List.sort Diag.order !stale;
    errors = List.rev !errors;
    typed_modules = List.length loaded;
    units_without_cmt;
  }
