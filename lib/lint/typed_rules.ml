(* The mortar-lint rules, run over compiler [.cmt] artifacts with one
   [Tast_iterator] pass per module: every rule sees resolved paths and
   inferred types. A path is matched as the typer resolved it, with
   local module aliases followed and the [Stdlib.] prefix dropped, so
   [open Unix] then [gettimeofday ()], [module R = Random] then
   [R.int 6] and [Stdlib.Sys.time ()] are the calls they spell, and a
   local function that happens to be called [getenv] is not.

   D1  wall-clock reads (Unix.gettimeofday / Unix.time / Sys.time)
       anywhere but the allow-listed bench timing module. Simulated
       components must take time from Sim.Clock; a single stray
       gettimeofday breaks byte-identical seeded replay.
   D2  the global Random module (including Random.State and especially
       Random.self_init). All randomness must flow through the seeded
       splitmix Util.Rng so a run is a pure function of its seed.
   D3  hash-order escaping into an ordered data structure, two forms:
       (a) Hashtbl.fold / Hashtbl.iter (or Lazy_tbl.fold / iter, the
       Hashtbl wrapper in lib/util) whose callback builds a list (a
       [::] cons anywhere in the callback, whatever the argument's
       label or position);
       (b) Hashtbl.to_seq / to_seq_keys / to_seq_values materialized
       through List.of_seq or Array.of_seq, directly or through a
       [|>] / [@@] pipe (including with Seq combinators in between).
       Either form is fine under a List/Array sort application.
   D4  catch-all [try ... with _ ->] (or [with e ->]) handlers, which swallow
       Out_of_memory, Stack_overflow and genuine bugs alike.
   D5  polymorphic compare/(=)/(<>) with an operand that is a
       float-bearing record: a record literal setting a float field, a
       projection of a float field, or a value whose type is a record
       type declaring one. Polymorphic comparison of floats breaks under
       NaN and under representation changes.
   D6  raw multicore primitives (Domain, Domain.DLS, Atomic, Mutex,
       Condition, Semaphore) outside the sanctioned parallel runtime
       (lib/par). Shared mutable state touched from a stray
       Domain.spawn bypasses the epoch barrier that makes the sharded
       simulation deterministic; everything else must go through
       Par.Pool / Par.Ctx, whose fallback build is sequential.

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

   D10 environment reads (Sys.getenv, Sys.getenv_opt, Unix.getenv) in
       every linted tree. An environment variable is a hidden knob: a
       run's behaviour (or its output) then depends on more than its
       command line and seed. Configuration flows through flags and
       config records.

   D11 dead export. A [val] in an interface that no other compilation
       unit refers to (drop it from the interface, and delete it if its
       module does not use it either), or that only test code refers
       to (delete it with its tests, or keep it with an allow comment
       naming the test that uses it as an oracle). References are
       resolved value paths from every [.cmt] of the build, so callers
       outside the lint roots count; a record label or constructor of
       the same name is not a reference.

   D12 dead constructor or field. A variant constructor of an exported
       type that no expression outside test code builds (matching it in
       a pattern is not a use), or a record field of one that nothing
       reads ([r.f] or a record pattern; building a record and keeping a
       field in [{ r with ... }] are not reads). Same universe, alias
       resolution, test scope and allow path as D11; a re-export
       ([type t = M.t = A | B]) resolves to the original type.

   A module without a [.cmt] is not linted at all: on 4.14 that is
   lib/par's multicore backend, on 5.x its sequential fallback (dune
   compiles one of the two). Both expose the same [Par.Pool] paths, so
   D7 analyzes identical call sites on either. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Phase 1: type environment, collected over every loaded cmt.         *)

type tenv = {
  mut_types : (string, unit) Hashtbl.t;
  (* keys for a mutable type [ty] declared in unit [U] (short name [S]):
     "U.ty", "S.ty", and bare "ty" unless the name is the conventional
     "t" (too generic to key globally — "S.t" still matches). *)
  float_types : (string, unit) Hashtbl.t;
  (* D5: float-bearing record types by [type_key] of their full path,
     nested modules included: a bare name would confuse [Tree.node],
     an int, with an unrelated float-bearing [node] record. *)
  mutable aliases : (string list * Types.type_expr) list;
  (* abbreviations pending resolution: keys, manifest *)
}

let empty_tenv () =
  { mut_types = Hashtbl.create 64; float_types = Hashtbl.create 64; aliases = [] }

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

(* "Mortar_sim__Shard" -> ["Mortar_sim"; "Shard"] *)
let split_units parts =
  List.concat_map
    (fun s -> match Lint_util.rsplit2 s "__" with Some (a, b) -> [ a; b ] | None -> [ s ])
    parts

(* D5's key for a type: its full path with dune's "__" unit names
   split, so [Mortar_sim__Shard.t] and [Mortar_sim.Shard.t] agree. *)
let type_key parts = String.concat "." (split_units parts)

(* D5: a float, or an option, array, list, ref or tuple holding one. *)
let rec type_is_floatish ty =
  match Types.get_desc ty with
  | Types.Tconstr (path, args, _) -> (
    match (Path.last path, args) with
    | "float", [] -> true
    | ("option" | "array" | "list" | "ref"), [ a ] -> type_is_floatish a
    | _ -> false)
  | Types.Ttuple ts -> List.exists type_is_floatish ts
  | Types.Tpoly (t, _) -> type_is_floatish t (* a label's declared type *)
  | _ -> false

let collect_types env ~modname (str : structure) =
  let scope = ref [ modname ] (* enclosing modules, innermost first *) in
  let module_binding it (mb : module_binding) =
    let outer = !scope in
    Option.iter (fun id -> scope := Ident.name id :: outer) mb.mb_id;
    Tast_iterator.default_iterator.module_binding it mb;
    scope := outer
  in
  let structure_item it (x : structure_item) =
    (match x.str_desc with
    | Tstr_type (_, decls) ->
      List.iter
        (fun (d : type_declaration) ->
          let name = d.typ_name.Location.txt in
          match d.typ_kind with
          | Ttype_record labels ->
            if List.exists (fun l -> l.ld_mutable = Asttypes.Mutable) labels then
              List.iter (fun k -> Hashtbl.replace env.mut_types k ()) (keys_for ~modname name);
            if List.exists (fun l -> type_is_floatish l.ld_type.ctyp_type) labels then
              Hashtbl.replace env.float_types (type_key (List.rev (name :: !scope))) ()
          | Ttype_abstract | Ttype_variant _ | Ttype_open -> (
            match d.typ_manifest with
            | Some ct ->
              env.aliases <- (keys_for ~modname name, ct.ctyp_type) :: env.aliases
            | None -> ()))
        decls
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it x
  in
  let it = { Tast_iterator.default_iterator with module_binding; structure_item } in
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

let path_parts p = split_units (String.split_on_char '.' (Path.name p))

let rec strip_constraints (me : module_expr) =
  match me.mod_desc with Tmod_constraint (m, _, _, _) -> strip_constraints m | _ -> me

let alias_target me =
  match (strip_constraints me).mod_desc with Tmod_ident (p, _) -> Some p | _ -> None

(* Follow local module aliases ([module D = ...], [let module D = ...
   in]), keyed by the alias's unique ident name. [self]: the unit a
   local head (a type or module of this unit) belongs to; without it a
   local path is not a reference to anything exported. *)
let rec flatten ?self locals (p : Path.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt locals (Ident.unique_name id) with
    | Some target -> flatten ?self locals target
    | None ->
      if Ident.global id then Some [ Ident.name id ]
      else Option.map (fun m -> [ m; Ident.name id ]) self)
  | Path.Pdot (q, s) -> Option.map (fun parts -> parts @ [ s ]) (flatten ?self locals q)
  | _ -> None

let add_alias locals id me =
  Option.iter (Hashtbl.replace locals (Ident.unique_name id)) (alias_target me)

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
  modname : string; (* the unit being linted *)
  allow_wallclock : bool; (* the bench clock module may read the wall clock *)
  allow_multicore : bool; (* lib/par: D6 and D7 do not apply inside the runtime *)
  locals : (string, Path.t) Hashtbl.t; (* module aliases bound so far in this unit *)
  mutable sorted_depth : int; (* > 0 while under a sort application *)
  mutable out : Diag.t list;
}

let add ctx ~code ~loc message = ctx.out <- Diag.make ~code ~loc ~message :: ctx.out

(* Does [e] or any sub-expression satisfy [p]? *)
let exists_sub p (e : expression) =
  let found = ref false in
  let expr it (x : expression) =
    if p x then found := true;
    Tast_iterator.default_iterator.expr it x
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Apply [f] to each direct sub-expression of [e]. *)
let iter_children f (e : expression) =
  let it = { Tast_iterator.default_iterator with expr = (fun _ x -> f x) } in
  Tast_iterator.default_iterator.expr it e

(* ---- D1-D6, D10 -------------------------------------------------- *)

(* The value an identifier names, every alias undone and the Stdlib
   prefix dropped: ["Random"; "int"] for [R.int] after [module R =
   Random], ["Sys"; "time"] for [Stdlib.Sys.time]. A value bound in the
   unit itself names nothing. *)
let ident ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match Option.map split_units (flatten ctx.locals p) with
    | Some ("Stdlib" :: parts) -> Some parts
    | parts -> parts)
  | _ -> None

let rev_ident ctx e = Option.map List.rev (ident ctx e)

let check_ident ctx (e : expression) =
  match ident ctx e with
  | None -> ()
  | Some parts -> (
    let name = String.concat "." parts in
    match parts with
    | ([ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ]) when not ctx.allow_wallclock
      ->
      add ctx ~code:"D1" ~loc:e.exp_loc
        (Printf.sprintf
           "wall-clock read '%s' breaks deterministic replay; use the simulated clock, or \
            Bench_clock in the bench harness"
           name)
    | "Random" :: _ :: _ ->
      let extra =
        if List.nth parts (List.length parts - 1) = "self_init" then
          " (self_init makes runs irreproducible by construction)"
        else ""
      in
      add ctx ~code:"D2" ~loc:e.exp_loc
        (Printf.sprintf
           "global randomness '%s'%s; all randomness must flow through the seeded Util.Rng"
           name extra)
    | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ :: _
      when not ctx.allow_multicore ->
      add ctx ~code:"D6" ~loc:e.exp_loc
        (Printf.sprintf
           "raw multicore primitive '%s' outside lib/par; shared state crossing domains \
            bypasses the deterministic epoch barrier — use Par.Pool / Par.Ctx"
           name)
    | [ "Sys"; ("getenv" | "getenv_opt") ] | [ "Unix"; "getenv" ] ->
      add ctx ~code:"D10" ~loc:e.exp_loc
        (Printf.sprintf
           "environment read '%s' is a hidden knob; pass configuration through flags or \
            config records"
           name)
    | _ -> ())

let is_sort_fn ctx e =
  match ident ctx e with
  | Some [ ("List" | "ListLabels" | "Array" | "ArrayLabels"); f ] ->
    List.mem f [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]
  | _ -> false

(* [List.sort cmp] partially applied, or the bare sort identifier. *)
let is_sort_app ctx e =
  is_sort_fn ctx e || (match e.exp_desc with Texp_apply (f, _) -> is_sort_fn ctx f | _ -> false)

(* D3: Hashtbl.fold/iter under any module path (MoreLabels.Hashtbl
   too), and the same calls on Util.Lazy_tbl. *)
let hashtbl_iter_fold ctx e =
  match rev_ident ctx e with
  | Some ((("fold" | "iter") as which) :: (("Hashtbl" | "Lazy_tbl") as m) :: _) ->
    Some (m ^ "." ^ which)
  | _ -> None

let is_of_seq ctx e =
  match rev_ident ctx e with
  | Some ("of_seq" :: (("List" | "Array") as m) :: _) -> Some m
  | _ -> None

let contains_hashtbl_to_seq ctx =
  exists_sub (fun x ->
      match rev_ident ctx x with
      | Some (("to_seq" | "to_seq_keys" | "to_seq_values") :: "Hashtbl" :: _) -> true
      | _ -> false)

(* A list cons anywhere: [x :: acc], [acc := x :: !acc] and [[x]] alike. *)
let builds_list =
  exists_sub (fun x ->
      match x.exp_desc with Texp_construct (_, cd, _) -> cd.Types.cstr_name = "::" | _ -> false)

let is_fun (e : expression) = match e.exp_desc with Texp_function _ -> true | _ -> false

let check_d3 ctx (e : expression) f args =
  (* Form (a): a fold/iter callback that conses, whatever the
     argument's label or position. *)
  (match hashtbl_iter_fold ctx f with
  | Some which when List.exists (fun cb -> is_fun cb && builds_list cb) args ->
    add ctx ~code:"D3" ~loc:e.exp_loc
      (Printf.sprintf
         "%s builds a list in hash order; sort the escaping result (e.g. '|> List.sort \
          compare') or keep it commutative"
         which)
  | _ -> ());
  (* Form (b): to_seq materialized into a list/array. The typer turns
     [x |> f] into [f x], so a [|> Seq.map ... |> List.of_seq] chain is
     one application here, and the pipe shows only in [f] coming after
     its argument. *)
  match is_of_seq ctx f with
  | Some m when List.exists (contains_hashtbl_to_seq ctx) args ->
    let piped =
      List.exists
        (fun (a : expression) -> a.exp_loc.loc_start.pos_cnum < f.exp_loc.loc_start.pos_cnum)
        args
    in
    add ctx ~code:"D3" ~loc:e.exp_loc
      (Printf.sprintf
         "Hashtbl.to_seq materialized via %sof_seq escapes hash order; sort the result or \
          keep it a transient sequence"
         (if piped then "" else m ^ "."))
  | _ -> ()

(* D5 evidence from the operand's shape: a float field projected, or a
   record literal setting one. *)
let float_shape (e : expression) =
  match e.exp_desc with
  | Texp_field (_, _, ld) when type_is_floatish ld.Types.lbl_arg ->
    Some (Printf.sprintf "float field '%s'" ld.lbl_name)
  | Texp_record { fields; _ }
    when Array.exists
           (function
             | (ld : Types.label_description), Overridden _ -> type_is_floatish ld.lbl_arg
             | _, Kept _ -> false)
           fields ->
    Some "record literal with a float field"
  | _ -> None

(* D5 evidence from the operand's type: a float-bearing record. *)
let float_record ctx (e : expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) -> (
    match flatten ~self:ctx.modname ctx.locals p with
    | Some parts when Hashtbl.mem ctx.env.float_types (type_key parts) ->
      Some (Printf.sprintf "value of float-bearing record type '%s'" (Path.last p))
    | _ -> None)
  | _ -> None

let check_d5 ctx (e : expression) f args =
  match (ident ctx f, args) with
  | Some [ ("compare" | "=" | "<>") as op ], [ a; b ] -> (
    let why =
      match List.find_map float_shape [ a; b ] with
      | Some why -> Some why
      | None -> List.find_map (float_record ctx) [ a; b ]
    in
    match why with
    | Some why ->
      add ctx ~code:"D5" ~loc:e.exp_loc
        (Printf.sprintf
           "polymorphic '%s' applied to %s; NaN and representation changes break it — use \
            Float.compare or an explicit comparator"
           op why)
    | None -> ())
  | _ -> ()

let check_d4 ctx cases =
  List.iter
    (fun c ->
      if pat_is_catch_all c.c_lhs then
        add ctx ~code:"D4" ~loc:c.c_lhs.pat_loc
          "catch-all exception handler swallows Out_of_memory/Stack_overflow and real bugs; \
           match the specific exceptions instead")
    cases

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
    | _ ->
      (* The sanction only survives projection chains. *)
      iter_children (walk ~sanctioned:false) e
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
let guard_is_cold =
  exists_sub (fun x ->
      match x.exp_desc with Texp_ident (p, _, _) -> last_part p = "enabled" | _ -> false)

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
    | Texp_ifthenelse (cond, _cold, else_) when guard_is_cold cond ->
      (* The guarded branch is the sanctioned cold path; the else branch
         stays hot. *)
      Option.iter (walk ~top:false) else_
    | _ -> children e
  and children e = iter_children (walk ~top:false) e
  in
  walk ~top:true body

let has_hot_attr (vb : value_binding) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.Parsetree.attr_name.Location.txt = "lint.hot")
    vb.vb_attributes

let binding_name (vb : value_binding) =
  match vb.vb_pat.pat_desc with Tpat_var (id, _) -> Ident.name id | _ -> "<pattern>"

(* ---- the per-file pass ------------------------------------------- *)

let check_d8 ctx ty cases =
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
      cases

let run_rules env ~modname ~allow_wallclock ~allow_multicore (str : structure) =
  let ctx =
    {
      env;
      modname;
      allow_wallclock;
      allow_multicore;
      locals = Hashtbl.create 16;
      sorted_depth = 0;
      out = [];
    }
  in
  let expr it (e : expression) =
    let under_sort =
      match e.exp_desc with
      | Texp_ident _ ->
        check_ident ctx e;
        false
      | Texp_try (_, cases) ->
        check_d4 ctx cases;
        false
      | Texp_apply (fn, args) ->
        let args = List.filter_map snd args in
        if ctx.sorted_depth = 0 then check_d3 ctx e fn args;
        check_d5 ctx e fn args;
        (* D7: closures handed to the parallel runtime. *)
        (match fn.exp_desc with
        | Texp_ident (p, _, _) when is_par_entry p && not ctx.allow_multicore ->
          List.iter (fun a -> if is_fun a then check_closure ctx a) args
        | _ -> ());
        (* [List.sort cmp xs], and [xs |> List.sort cmp] as the typer
           has it: [(List.sort cmp) xs]. *)
        is_sort_app ctx fn
      | Texp_match (scrut, cases, _) ->
        check_d8 ctx scrut.exp_type cases;
        false
      | Texp_function { cases = c :: _ :: _ as cases; _ } ->
        (* [function]-style dispatch over the protocol type. Only multi-case
           functions count: a single var pattern is a plain parameter
           ([fun payload -> ...]), not a dispatch with a wildcard arm. *)
        check_d8 ctx c.c_lhs.pat_type cases;
        false
      | Texp_letmodule (Some id, _, _, me, _) ->
        add_alias ctx.locals id me;
        false
      | _ -> false
    in
    if under_sort then ctx.sorted_depth <- ctx.sorted_depth + 1;
    Tast_iterator.default_iterator.expr it e;
    if under_sort then ctx.sorted_depth <- ctx.sorted_depth - 1
  in
  let module_binding it (mb : module_binding) =
    Option.iter (fun id -> add_alias ctx.locals id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding it mb
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
  let it = { Tast_iterator.default_iterator with expr; module_binding; structure_item } in
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
  mutable built : ((string list * string) * string) list; (* D12: (type path, constructor) *)
  mutable read : ((string list * string) * string) list; (* D12: (type path, label) *)
}

let empty_refs () =
  { aliases = Hashtbl.create 256; values = []; modules = []; built = []; read = [] }

let collect_refs refs ~modname ~source (str : structure) =
  let locals = Hashtbl.create 16 and values = ref [] and modules = ref [] in
  let built = ref [] and read = ref [] in
  let use acc ty name =
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> acc := (p, name) :: !acc
    | _ -> ()
  in
  let module_binding it (mb : module_binding) =
    match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some _ -> add_alias locals id mb.mb_expr
    | _ -> Tast_iterator.default_iterator.module_binding it mb
  in
  let expr it (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> values := p :: !values
    | Texp_letmodule (Some id, _, _, me, body) when alias_target me <> None ->
      add_alias locals id me;
      it.Tast_iterator.expr it body
    | _ ->
      (match e.exp_desc with
      | Texp_construct (_, cd, _) -> use built cd.Types.cstr_res cd.cstr_name
      | Texp_field (_, _, ld) -> use read ld.Types.lbl_res ld.lbl_name
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
  in
  (* A record pattern reads its labels; a constructor pattern builds nothing. *)
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
      List.iter (fun (_, (ld : Types.label_description), _) -> use read ld.lbl_res ld.lbl_name) fields
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
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
    { Tast_iterator.default_iterator with module_binding; expr; pat; module_expr; open_declaration }
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
  refs.modules <- resolve refs.modules !modules;
  let resolve_typed acc uses =
    List.fold_left
      (fun acc (p, name) ->
        match flatten ~self:modname locals p with
        | Some parts -> ((parts, name), source) :: acc
        | None -> acc)
      acc uses
  in
  refs.built <- resolve_typed refs.built !built;
  refs.read <- resolve_typed refs.read !read

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

(* Uses split by scope: [prod] holds the keys some non-test unit uses,
   [tests] maps a key to each test source that uses it. *)
let tally ~is_test key_of uses (prod, tests) =
  List.iter
    (fun (parts, source) ->
      let key = key_of parts in
      if is_test source then Hashtbl.add tests key source else Hashtbl.replace prod key ())
    uses

(* A finding unless production code uses one of [keys]; [never] and
   [test_only] name the missing use. *)
let verdict ~code ~loc (prod, tests) keys ~never ~test_only =
  if List.exists (Hashtbl.mem prod) keys then None
  else
    let message =
      match List.concat_map (Hashtbl.find_all tests) keys |> List.sort_uniq compare with
      | [] -> never
      | users ->
        Printf.sprintf
          "%s only from test code (%s); delete it with the tests that exercise it, or allow \
           it inline naming the test that uses it as an oracle"
          test_only (String.concat ", " users)
    in
    Some (Diag.make ~code ~loc ~message)

(* D11: an exported value that no other compilation unit refers to, or
   that only test code ([is_test] on the referencing unit's source)
   refers to. [interfaces] are (modname, signature) pairs. *)
let dead_exports refs ~is_test interfaces =
  let uses = (Hashtbl.create 4096, Hashtbl.create 1024) in
  (* A unit cannot name itself, so every resolved path is another unit's. *)
  let key_of ~whole parts =
    (if whole then "module " else "") ^ String.concat "." (canonical refs.aliases parts)
  in
  tally ~is_test (key_of ~whole:false) refs.values uses;
  tally ~is_test (key_of ~whole:true) refs.modules uses;
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
          verdict ~code:"D11" ~loc uses (keys key)
            ~never:
              (Printf.sprintf
                 "exported value '%s' is not referenced outside its module; drop it from the \
                  interface (and delete it if the module does not use it either)"
                 name)
            ~test_only:(Printf.sprintf "exported value '%s' is referenced" name))
        (exports ~modname sg))
    interfaces

(* ---- D12 --------------------------------------------------------- *)

(* The constructors ([`Built]) and record labels ([`Read]) of the types
   one interface declares, nested module signatures included, keyed
   "Unit.type.name". A re-export ([type t = M.t = A | B]) declares
   nothing of its own: it lands in [reexports], type key -> original. *)
let type_parts ~reexports ~modname (sg : signature) =
  let rec items key name (sg : signature) =
    List.concat_map
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_type (_, decls) -> List.concat_map (decl key name) decls
        | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          let m = Ident.name id in
          items (key ^ "." ^ m) (name ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  and decl key name (d : type_declaration) =
    let key = key ^ "." ^ d.typ_name.txt and name = name ^ "." ^ d.typ_name.txt in
    let part kind n loc = (kind, key ^ "." ^ n, name ^ "." ^ n, loc) in
    match (d.typ_manifest, d.typ_kind) with
    | Some ct, (Ttype_variant _ | Ttype_record _) ->
      (match Types.get_desc ct.ctyp_type with
      | Types.Tconstr (p, _, _) ->
        Option.iter (Hashtbl.replace reexports key)
          (flatten ~self:modname (Hashtbl.create 1) p)
      | _ -> ());
      []
    | _, Ttype_variant cds ->
      List.map (fun (cd : constructor_declaration) -> part `Built cd.cd_name.txt cd.cd_loc) cds
    | _, Ttype_record lds ->
      List.map (fun (ld : label_declaration) -> part `Read ld.ld_name.txt ld.ld_loc) lds
    | _ -> []
  in
  items modname (Option.value (short_of_modname modname) ~default:modname) sg

(* D12: a constructor of an exported type that no expression outside
   test code builds (patterns only take values apart), or a label of
   one that nothing reads ([r.l] or a record pattern; building a record
   and keeping a field in [{ r with ... }] are not reads). *)
let dead_type_parts refs ~is_test interfaces =
  let reexports = Hashtbl.create 16 in
  let parts = List.concat_map (fun (modname, sg) -> type_parts ~reexports ~modname sg) interfaces in
  (* The canonical "Unit.type.name" key of a use, through re-exports. *)
  let rec original fuel ty =
    let ty = canonical refs.aliases ty in
    match Hashtbl.find_opt reexports (String.concat "." ty) with
    | Some target when fuel > 0 -> original (fuel - 1) target
    | _ -> ty
  in
  let key_of (ty, name) = String.concat "." (original 32 ty @ [ name ]) in
  let built = (Hashtbl.create 1024, Hashtbl.create 256)
  and read = (Hashtbl.create 2048, Hashtbl.create 512) in
  tally ~is_test key_of refs.built built;
  tally ~is_test key_of refs.read read;
  List.filter_map
    (fun (kind, key, name, loc) ->
      match kind with
      | `Built ->
        verdict ~code:"D12" ~loc built [ key ]
          ~never:
            (Printf.sprintf
               "exported constructor '%s' is never built (a pattern is not a use); delete it \
                with the match arms that handle it"
               name)
          ~test_only:(Printf.sprintf "exported constructor '%s' is built" name)
      | `Read ->
        verdict ~code:"D12" ~loc read [ key ]
          ~never:
            (Printf.sprintf
               "exported record field '%s' is never read (building a record or copying it \
                with 'with' is not a read); delete it"
               name)
          ~test_only:(Printf.sprintf "exported record field '%s' is read" name))
    parts
