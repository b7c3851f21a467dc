(* The typed mortar-lint rules (D7-D9, D11), run over compiler [.cmt]
   artifacts with [Tast_iterator] — unlike D1-D6 and D10 these see resolved
   paths and inferred types, so they can reason about mutability,
   constructor coverage and callers instead of surface syntax.

   D7  cross-shard mutable escape. A value of mutable type — [ref],
       [array], [Bytes.t], [Hashtbl.t], [Buffer.t], [Queue.t],
       [Stack.t], [Atomic.t], or any record declaring a [mutable] field
       (determined from the typedtree declarations collected across the
       whole run, not from names) — captured by a closure passed into
       the parallel runtime ([Par.Pool.run]-style entry points, plus
       the deployment's [par_shards] wrapper) is a potential data race:
       it is visible both to the shard slice and to the merge loop.
       The sanctioned escape hatch is the cross-shard batch API: a
       capture consumed directly by an allow-listed [Shard] accessor
       ([Shard.post] / [Shard.drain]) is the canonical cross-shard
       channel and is not flagged. Everything else needs an inline
       allow comment explaining why the access is race-free (e.g.
       "item i touches only shards.(i)").

   D8  protocol exhaustiveness. A [match] (or [function]) over a
       protocol sum type — [Msg.payload], the peer wire protocol, or
       [Plan.Registry.action], the planner's command stream — must
       handle every constructor explicitly: a catch-all case means a
       newly added message variant silently falls into whatever the
       wildcard does (usually: gets dropped). Flagged unless justified
       inline with an allow comment.

   D9  hot-path allocation. Functions annotated [@lint.hot] are the
       per-event/per-message fast paths; the rule flags allocations the
       typedtree makes visible — nested closure literals, tuples,
       record literals, and boxed floats (a float argument to a
       constructor) — except inside observability branches guarded by a
       disabled-by-default flag (a condition reading [...enabled]),
       which are sanctioned cold paths.

   D11 dead export. A [val] in an interface that no other compilation
       unit refers to (drop it from the interface, and delete it if its
       module does not use it either), or that only test code refers
       to (delete it with its tests, or keep it with an allow comment
       naming the test that uses it as an oracle). References are
       resolved value paths from every [.cmt] of the build, so callers
       outside the lint roots count; a record label or constructor of
       the same name is not a reference.

   All four degrade gracefully where artifacts are missing: no cmt,
   no typed findings (the syntactic D1-D6 and D10 pass still runs). On 4.14
   the parallel runtime is the sequential fallback but exposes the
   same [Par.Pool] paths, so D7 analyzes identical call sites. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Phase 1: mutability environment, collected over every loaded cmt.   *)

type tenv = {
  mut_types : (string, unit) Hashtbl.t;
  (* keys for a mutable type [ty] declared in unit [U] (short name [S]):
     "U.ty", "S.ty", and bare "ty" unless the name is the conventional
     "t" (too generic to key globally — "S.t" still matches). *)
  mutable aliases : (string list * Types.type_expr) list;
  (* abbreviations pending resolution: keys, manifest *)
}

let empty_tenv () = { mut_types = Hashtbl.create 64; aliases = [] }

(* "Mortar_sim__Shard" -> Some "Shard" *)
let short_of_modname m =
  match Lint_util.rsplit2 m "__" with
  | Some (_, s) when s <> "" -> Some s
  | None | Some _ -> None

let keys_for ~modname ty =
  let ks = [ modname ^ "." ^ ty ] in
  let ks = match short_of_modname modname with Some s -> (s ^ "." ^ ty) :: ks | None -> ks in
  if ty <> "t" then ty :: ks else ks

(* Lookup keys for a resolved type path: the full dotted name, the
   "Parent.last" pair (with the parent's "__" prefix stripped), and the
   bare last component. *)
let lookup_keys path =
  let name = Path.name path in
  let parts = String.split_on_char '.' name in
  let last = List.nth parts (List.length parts - 1) in
  let parent = match List.rev parts with _ :: p :: _ -> Some p | _ -> None in
  let keys = [ name ] in
  let keys =
    match parent with
    | None -> keys
    | Some p ->
      let keys = (p ^ "." ^ last) :: keys in
      (match short_of_modname p with Some s -> (s ^ "." ^ last) :: keys | None -> keys)
  in
  (last :: keys, last, parent)

let parent_short parent =
  match parent with
  | None -> None
  | Some p -> ( match short_of_modname p with Some s -> Some s | None -> Some p)

let mutable_stdlib_containers = [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Atomic"; "Bytes" ]

let rec type_is_mutable env ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, args, _) -> (
    let keys, last, parent = lookup_keys path in
    match last with
    | "ref" | "array" | "bytes" -> true
    | "option" | "list" -> (
      match args with [ a ] -> type_is_mutable env a | _ -> false)
    | _ ->
      (match parent_short parent with
      | Some p when last = "t" && List.mem p mutable_stdlib_containers -> true
      | _ -> List.exists (Hashtbl.mem env.mut_types) keys))
  | Types.Ttuple ts -> List.exists (type_is_mutable env) ts
  | _ -> false

(* Human-readable type head for messages: last two path components. *)
let type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) -> (
    let name = Path.name path in
    let parts = String.split_on_char '.' name in
    match List.rev parts with
    | last :: parent :: _ ->
      let parent = match short_of_modname parent with Some s -> s | None -> parent in
      parent ^ "." ^ last
    | _ -> name)
  | Types.Ttuple _ -> "tuple"
  | _ -> "value"

let collect_types env ~modname (str : structure) =
  let add_mutable ty = List.iter (fun k -> Hashtbl.replace env.mut_types k ()) (keys_for ~modname ty) in
  let structure_item it (x : structure_item) =
    (match x.str_desc with
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : type_declaration) ->
          let name = d.typ_name.Location.txt in
          match d.typ_kind with
          | Ttype_record labels ->
            if List.exists (fun l -> l.ld_mutable = Asttypes.Mutable) labels then
              add_mutable name
          | Ttype_abstract | Ttype_variant _ | Ttype_open -> (
            match d.typ_manifest with
            | Some ct ->
              env.aliases <- (keys_for ~modname name, ct.ctyp_type) :: env.aliases
            | None -> ()))
        decls
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it x
  in
  let it = { Tast_iterator.default_iterator with structure_item } in
  it.structure it str

(* Resolve alias chains (type t = foo ref; type u = t) to a fixpoint. *)
let close_tenv env =
  let changed = ref true in
  while !changed do
    changed := false;
    let pending, resolved =
      List.partition (fun (_, manifest) -> not (type_is_mutable env manifest)) env.aliases
    in
    if resolved <> [] then begin
      List.iter
        (fun (keys, _) -> List.iter (fun k -> Hashtbl.replace env.mut_types k ()) keys)
        resolved;
      env.aliases <- pending;
      changed := true
    end
  done

(* ------------------------------------------------------------------ *)
(* Shared helpers for the rule pass.                                   *)

let path_parts p =
  Path.name p |> String.split_on_char '.'
  |> List.concat_map (fun s ->
         match Lint_util.rsplit2 s "__" with Some (a, b) -> [ a; b ] | None -> [ s ])

let last_part p =
  let parts = path_parts p in
  List.nth parts (List.length parts - 1)

(* D7: entry points into the parallel runtime whose closure arguments
   run on worker domains. *)
let is_par_entry p =
  let parts = path_parts p in
  let last = last_part p in
  (List.mem "Pool" parts && List.mem last [ "run"; "map"; "iter" ]) || last = "par_shards"

(* D7: the sanctioned batch API — a mutable capture handed straight to
   one of these is the canonical cross-shard channel. [flip] and
   [pending_min] are barrier-only and stay flagged. *)
let is_outbox_accessor p =
  let parts = path_parts p in
  List.mem "Shard" parts && List.mem (last_part p) [ "post"; "drain" ]

(* D8: protocol sum types whose dispatch must stay exhaustive. *)
let protocol_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, _, _) -> (
    let parts = path_parts path in
    let last = last_part path in
    match last with
    | "payload" when List.mem "Msg" parts -> Some "Msg.payload"
    | "action" when List.mem "Registry" parts -> Some "Registry.action"
    | _ -> None)
  | _ -> None

let rec pat_is_catch_all : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_any -> true
  | Tpat_var _ -> true
  | Tpat_alias (q, _, _) -> pat_is_catch_all q
  | Tpat_value v -> pat_is_catch_all (v :> value general_pattern)
  | Tpat_or (a, b, _) -> pat_is_catch_all a || pat_is_catch_all b
  | _ -> false

let pat_is_exception : type k. k general_pattern -> bool =
 fun p -> match p.pat_desc with Tpat_exception _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The rule pass.                                                      *)

type ctx = {
  env : tenv;
  allow_multicore : bool; (* lib/par: D7 does not apply inside the runtime *)
  mutable out : Diag.t list;
}

let add ctx ~code ~loc message = ctx.out <- Diag.make ~code ~loc ~message :: ctx.out

(* ---- D7 ---------------------------------------------------------- *)

(* Idents bound anywhere inside [e] (params, lets, match cases, for
   indices). Scope-insensitive on purpose: a shadowing binder hides a
   same-named capture, which errs toward silence, never noise. *)
let bound_idents (e : expression) =
  let tbl = Hashtbl.create 16 in
  let bind id = Hashtbl.replace tbl (Ident.unique_name id) () in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> bind id
    | Tpat_alias (_, id, _) -> bind id
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let expr it (x : expression) =
    (match x.exp_desc with Texp_for (id, _, _, _, _, _) -> bind id | _ -> ());
    Tast_iterator.default_iterator.expr it x
  in
  let it = { Tast_iterator.default_iterator with pat; expr } in
  it.expr it e;
  tbl

(* Walk a closure body flagging mutable captures. [sanctioned] is true
   while descending through an allow-listed accessor's argument (only
   field projections keep it — anything else re-evaluates). *)
let check_closure ctx (closure : expression) =
  let bound = bound_idents closure in
  let reported = Hashtbl.create 4 in
  let rec walk ~sanctioned (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      if not sanctioned then
        match p with
        | Path.Pident id when Hashtbl.mem bound (Ident.unique_name id) -> ()
        | _ ->
          if type_is_mutable ctx.env e.exp_type && not (Hashtbl.mem reported (Path.name p))
          then begin
            Hashtbl.replace reported (Path.name p) ();
            add ctx ~code:"D7" ~loc:e.exp_loc
              (Printf.sprintf
                 "mutable state '%s' (%s) is captured by a closure handed to the parallel \
                  runtime; cross-shard mutation bypasses the outbox merge order — route it \
                  through the Shard outbox API or justify the sharding discipline inline"
                 (Path.name p) (type_head e.exp_type))
          end)
    | Texp_field (inner, _, _) -> walk ~sanctioned inner
    | Texp_apply (fn, args) ->
      let fn_sanctions =
        match fn.exp_desc with Texp_ident (p, _, _) -> is_outbox_accessor p | _ -> false
      in
      walk ~sanctioned:false fn;
      List.iter
        (fun (_, a) -> match a with Some a -> walk ~sanctioned:fn_sanctions a | None -> ())
        args
    | _ -> iter_children ~sanctioned:false e
  and iter_children ~sanctioned e =
    (* Generic recursion into sub-expressions via the iterator, with the
       sanction flag dropped (it only survives projection chains). *)
    ignore sanctioned;
    let expr _it (x : expression) = walk ~sanctioned:false x in
    let it = { Tast_iterator.default_iterator with expr } in
    Tast_iterator.default_iterator.expr it e
  in
  match closure.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter
      (fun c ->
        (match c.c_guard with Some g -> walk ~sanctioned:false g | None -> ());
        walk ~sanctioned:false c.c_rhs)
      cases
  | _ -> walk ~sanctioned:false closure

(* ---- D9 ---------------------------------------------------------- *)

(* A condition that reads a [...enabled]-style flag guards a sanctioned
   cold branch (observability is off by default on the hot path). *)
let guard_is_cold (cond : expression) =
  let found = ref false in
  let expr it (x : expression) =
    (match x.exp_desc with
    | Texp_ident (p, _, _) when last_part p = "enabled" -> found := true
    | _ -> ());
    Tast_iterator.default_iterator.expr it x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it cond;
  !found

let is_float_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, [], _) -> Path.name path = "float"
  | _ -> false

let check_hot ctx ~fname (body : expression) =
  let flag loc what =
    add ctx ~code:"D9" ~loc
      (Printf.sprintf
         "%s inside [@lint.hot] function '%s'; hoist it off the per-event path, guard it \
          behind a disabled-by-default flag, or justify it inline"
         what fname)
  in
  (* [top] is true while descending the function's own parameter chain:
     those [fun]s are the function, not allocations it performs. *)
  let rec walk ~top (e : expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      if not top then flag e.exp_loc "closure allocation";
      List.iter
        (fun c ->
          (match c.c_guard with Some g -> walk ~top:false g | None -> ());
          walk ~top c.c_rhs)
        cases
    | Texp_let (_, vbs, body) when top ->
      (* Optional arguments with defaults desugar to a [let] between two
         parameter [fun]s; keep the parameter-chain exemption flowing
         through the let's BODY only. Closures bound by the let itself
         (walked non-top) are still flagged. *)
      List.iter (fun vb -> walk ~top:false vb.vb_expr) vbs;
      walk ~top body
    | Texp_tuple _ ->
      flag e.exp_loc "tuple allocation";
      children e
    | Texp_record _ ->
      flag e.exp_loc "record allocation";
      children e
    | Texp_construct (_, _, args) ->
      if List.exists (fun (a : expression) -> is_float_type a.exp_type) args then
        flag e.exp_loc "boxed-float allocation (float argument to a constructor)";
      children e
    | Texp_ifthenelse (cond, then_, else_) when guard_is_cold cond ->
      (* The guarded branch is the sanctioned cold path; the else branch
         stays hot. *)
      ignore then_;
      (match else_ with Some e2 -> walk ~top:false e2 | None -> ())
    | _ -> children e
  and children e =
    let expr _it (x : expression) = walk ~top:false x in
    let it = { Tast_iterator.default_iterator with expr } in
    Tast_iterator.default_iterator.expr it e
  in
  walk ~top:true body

let has_hot_attr (vb : value_binding) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.Location.txt = "lint.hot")
    vb.vb_attributes

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with Tpat_var (id, _) -> Ident.name id | _ -> "<pattern>"

(* ---- the per-file pass ------------------------------------------- *)

let check_d8 ctx ~loc ty cases =
  match protocol_type ty with
  | None -> ()
  | Some proto ->
    List.iter
      (fun c ->
        if (not (pat_is_exception c.c_lhs)) && pat_is_catch_all c.c_lhs then
          add ctx ~code:"D8" ~loc:c.c_lhs.pat_loc
            (Printf.sprintf
               "catch-all case in a match on %s; handle every constructor explicitly so a \
                new protocol variant cannot be silently dropped (or justify the wildcard \
                inline)"
               proto))
      cases;
    ignore loc

let run_rules env ~allow_multicore (str : structure) =
  let ctx = { env; allow_multicore; out = [] } in
  let expr it (e : expression) =
    (match e.exp_desc with
    | Texp_apply (fn, args) when not ctx.allow_multicore -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) when is_par_entry p ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some (arg : expression) -> (
              match arg.exp_desc with
              | Texp_function _ -> check_closure ctx arg
              | _ -> ())
            | None -> ())
          args
      | _ -> ())
    | Texp_match (scrut, cases, _) -> check_d8 ctx ~loc:e.exp_loc scrut.exp_type cases
    | Texp_function { cases = c :: _ :: _ as cases; _ } ->
      (* [function]-style dispatch over the protocol type. Only multi-case
         functions count: a single var pattern is a plain parameter
         ([fun payload -> ...]), not a dispatch with a wildcard arm. *)
      check_d8 ctx ~loc:e.exp_loc c.c_lhs.pat_type cases
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let structure_item it (x : structure_item) =
    (match x.str_desc with
    | Tstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          if has_hot_attr vb then check_hot ctx ~fname:(binding_name vb) vb.vb_expr)
        vbs
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it x
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.structure it str;
  List.rev ctx.out

(* ---- D11 --------------------------------------------------------- *)

(* Value references across the whole build, for the dead-export rule.
   A reference is a resolved [Texp_ident] path flattened to its
   components ("Mortar_core__"; "Peer"; "digest"). Local module aliases
   ([module D = ...], [let module D = ... in]) are followed while the
   unit is read; global ones — dune's alias modules and any top-level
   [module M = P] — once every unit is in, by [canonical]. [open]
   needs nothing: the typer already resolved the path. *)
type refs = {
  aliases : (string, string list) Hashtbl.t; (* "Unit.M" -> target *)
  mutable values : (string list * string) list; (* path, referencing unit's source *)
  mutable modules : (string list * string) list;
      (* modules used whole (functor argument, [include], packing): every
         export under them counts as referenced *)
}

let empty_refs () = { aliases = Hashtbl.create 256; values = []; modules = [] }

let rec strip_constraints (me : module_expr) =
  match me.mod_desc with Tmod_constraint (m, _, _, _) -> strip_constraints m | _ -> me

let alias_target me =
  match (strip_constraints me).mod_desc with Tmod_ident (p, _) -> Some p | _ -> None

let rec flatten locals (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt locals (Ident.unique_name id) with
    | Some target -> flatten locals target
    | None -> if Ident.global id then Some [ Ident.name id ] else None)
  | Path.Pdot (q, s) -> Option.map (fun parts -> parts @ [ s ]) (flatten locals q)
  | _ -> None

let collect_refs refs ~modname ~source (str : structure) =
  let locals = Hashtbl.create 16 and values = ref [] and modules = ref [] in
  let add_local id p = Hashtbl.replace locals (Ident.unique_name id) p in
  let module_binding it (mb : module_binding) =
    match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> add_local id p
    | _ -> Tast_iterator.default_iterator.module_binding it mb
  in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> values := p :: !values
    | Texp_letmodule (Some id, _, _, me, body) when alias_target me <> None ->
      add_local id (Option.get (alias_target me));
      it.Tast_iterator.expr it body
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let module_expr it (me : module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> modules := p :: !modules
    | _ -> Tast_iterator.default_iterator.module_expr it me
  in
  let open_declaration it (od : open_declaration) =
    match od.open_expr.mod_desc with
    | Tmod_ident _ -> ()
    | _ -> Tast_iterator.default_iterator.open_declaration it od
  in
  let it =
    { Tast_iterator.default_iterator with module_binding; expr; module_expr; open_declaration }
  in
  it.structure it str;
  (* Aliases other units can reach: [Unit.M] and [Unit.Sub.M]. *)
  let rec globals prefix (items : structure_item list) =
    List.iter
      (fun (item : structure_item) ->
        match item.str_desc with
        | Tstr_module mb -> binding prefix mb
        | _ -> ())
      items
  and binding prefix (mb : module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let name = prefix ^ "." ^ Ident.name id in
      match (alias_target mb.mb_expr, (strip_constraints mb.mb_expr).mod_desc) with
      | Some p, _ -> Option.iter (Hashtbl.replace refs.aliases name) (flatten locals p)
      | None, Tmod_structure s -> globals name s.str_items
      | None, _ -> ())
  in
  globals modname str.str_items;
  let resolve acc ps =
    List.fold_left
      (fun acc p ->
        match flatten locals p with Some parts -> (parts, source) :: acc | None -> acc)
      acc ps
  in
  refs.values <- resolve refs.values !values;
  refs.modules <- resolve refs.modules !modules

(* Rewrite alias prefixes until the head is the defining unit:
   ["Mortar_core"; "Peer"; "digest"] -> ["Mortar_core__Peer"; "digest"]. *)
let canonical aliases parts =
  let rec go fuel parts =
    let n = List.length parts in
    let rec try_prefix k =
      if k > n || fuel = 0 then parts
      else
        let pre = List.filteri (fun i _ -> i < k) parts in
        match Hashtbl.find_opt aliases (String.concat "." pre) with
        | Some target -> go (fuel - 1) (target @ List.filteri (fun i _ -> i >= k) parts)
        | None -> try_prefix (k + 1)
    in
    try_prefix 2
  in
  go 32 parts

(* The [val]s of one interface, nested module signatures included. *)
let exports ~modname (sg : signature) =
  let short = Option.value (short_of_modname modname) ~default:modname in
  let rec items key name (sg : signature) =
    List.concat_map
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
          let v = vd.val_name.Location.txt in
          [ (key ^ "." ^ v, name ^ "." ^ v, vd.val_loc) ]
        | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          let m = Ident.name id in
          items (key ^ "." ^ m) (name ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  in
  items modname short sg

(* D11: an exported value that no other compilation unit refers to, or
   that only test code ([is_test] on the referencing unit's source)
   refers to. [interfaces] are (modname, signature) pairs. *)
let dead_exports refs ~is_test interfaces =
  let prod = Hashtbl.create 4096 and tests = Hashtbl.create 1024 in
  (* A unit cannot name itself, so every resolved path is another unit's. *)
  let record ~whole (parts, source) =
    let key = (if whole then "module " else "") ^ String.concat "." (canonical refs.aliases parts) in
    if is_test source then Hashtbl.add tests key source else Hashtbl.replace prod key ()
  in
  List.iter (record ~whole:false) refs.values;
  List.iter (record ~whole:true) refs.modules;
  (* The export's own key, then a "module P" key per enclosing module. *)
  let keys key =
    let parts = String.split_on_char '.' key in
    key
    :: List.init
         (List.length parts - 1)
         (fun k -> "module " ^ String.concat "." (List.filteri (fun i _ -> i <= k) parts))
  in
  List.concat_map
    (fun (modname, sg) ->
      List.filter_map
        (fun (key, name, loc) ->
          let keys = keys key in
          if List.exists (Hashtbl.mem prod) keys then None
          else
            let message =
              match List.concat_map (Hashtbl.find_all tests) keys |> List.sort_uniq compare with
              | [] ->
                Printf.sprintf
                  "exported value '%s' is not referenced outside its module; drop it from \
                   the interface (and delete it if the module does not use it either)"
                  name
              | users ->
                Printf.sprintf
                  "exported value '%s' is referenced only from test code (%s); delete it \
                   with the tests that exercise it, or allow it inline naming the test \
                   that uses it as an oracle"
                  name (String.concat ", " users)
            in
            Some (Diag.make ~code:"D11" ~loc ~message))
        (exports ~modname sg))
    interfaces
