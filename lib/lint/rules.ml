(* The seven syntactic mortar-lint rules, implemented as one Ast_iterator pass per
   file over the Parsetree (compiler-libs.common only — no typing, so
   every rule is syntactic and errs on the side of precision; anything
   it cannot see, it does not flag).

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
       label or position — MoreLabels-style [~f:] callbacks count);
       (b) Hashtbl.to_seq / to_seq_keys / to_seq_values materialized
       through List.of_seq or Array.of_seq, directly or through a
       [|>] / [@@] pipe (including with Seq combinators in between).
       Either form is fine when syntactically under a List/Array sort.
   D4  catch-all [try ... with _ ->] handlers, which swallow
       Out_of_memory, Stack_overflow and genuine bugs alike.
   D5  polymorphic compare/(=)/(<>) with an operand that is visibly a
       float-bearing record (record literal with a float field, a
       value annotated with a float-record type, or a projection of a
       known float field). Polymorphic comparison of floats breaks
       under NaN and under representation changes.

   D6  raw multicore primitives (Domain, Domain.DLS, Atomic, Mutex,
       Condition, Semaphore) outside the sanctioned parallel runtime
       (lib/par). Shared mutable state touched from a stray
       Domain.spawn bypasses the epoch barrier that makes the sharded
       simulation deterministic; everything else must go through
       Par.Pool / Par.Ctx, whose fallback build is sequential.

   D10 environment reads (Sys.getenv, Sys.getenv_opt, Unix.getenv) in
       every linted tree. An environment variable is a hidden knob: a
       run's behaviour (or its output) then depends on more than its
       command line and seed. Configuration flows through flags and
       config records.

   D5 needs a cross-file phase 1: [collect_types] gathers every record
   type declaring a float(ish) field, over all files in the run, before
   the per-file rule pass. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Phase 1: float-bearing record types (for D5).                       *)

type type_env = {
  mutable float_record_types : string list; (* names of record types with a float field *)
  mutable float_fields : string list; (* the float field names of those records *)
}

let empty_env () = { float_record_types = []; float_fields = [] }

let rec type_is_floatish (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) -> (
    match (Longident.last txt, args) with
    | "float", [] -> true
    | ("option" | "array" | "list" | "ref"), [ a ] -> type_is_floatish a
    | _ -> false)
  | Ptyp_tuple ts -> List.exists type_is_floatish ts
  | _ -> false

let collect_types env (str : structure) =
  let structure_item it x =
    (match x.pstr_desc with
    | Pstr_type (_, decls) ->
      List.iter
        (fun d ->
          match d.ptype_kind with
          | Ptype_record labels ->
            let floats = List.filter (fun l -> type_is_floatish l.pld_type) labels in
            if floats <> [] then begin
              env.float_record_types <- d.ptype_name.txt :: env.float_record_types;
              env.float_fields <-
                List.map (fun l -> l.pld_name.txt) floats @ env.float_fields
            end
          | _ -> ())
        decls
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it x
  in
  let it = { Ast_iterator.default_iterator with structure_item } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Phase 2: the rule pass.                                             *)

type ctx = {
  env : type_env;
  allow_wallclock : bool; (* the bench clock module may read the wall clock *)
  allow_multicore : bool; (* lib/par may use Domain/Atomic/Mutex directly *)
  mutable sorted_depth : int; (* > 0 while under a sort application *)
  mutable out : Diag.t list;
}

let add ctx ~code ~loc message = ctx.out <- Diag.make ~code ~loc ~message :: ctx.out

let path_of (e : expression) =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some (Longident.flatten txt) | _ -> None

let is_sort_fn e =
  match path_of e with
  | Some [ ("List" | "ListLabels" | "Array" | "ArrayLabels"); f ] ->
    List.mem f [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]
  | _ -> false

(* [List.sort cmp] partially applied, or the bare sort identifier. *)
let is_sort_app e =
  is_sort_fn e || (match e.pexp_desc with Pexp_apply (f, _) -> is_sort_fn f | _ -> false)

let is_pipe e =
  match path_of e with Some [ ("|>" | "@@") ] -> true | _ -> false

(* Hashtbl.fold/iter under any module path spelling (Hashtbl.fold,
   MoreLabels.Hashtbl.fold, ...), and the same calls on Util.Lazy_tbl,
   the allocate-on-first-write Hashtbl wrapper. *)
let hashtbl_iter_fold e =
  match path_of e with
  | Some p -> (
    match List.rev p with
    | (("fold" | "iter") as which) :: (("Hashtbl" | "Lazy_tbl") as m) :: _ ->
      Some (m ^ "." ^ which)
    | _ -> None)
  | None -> None

let is_of_seq e =
  match path_of e with
  | Some p -> (
    match List.rev p with
    | "of_seq" :: (("List" | "Array") as m) :: _ -> Some m
    | _ -> None)
  | None -> None

(* Does the subtree mention Hashtbl.to_seq{,_keys,_values}? *)
let contains_hashtbl_to_seq (e : expression) =
  let found = ref false in
  let expr it x =
    (match path_of x with
    | Some p -> (
      match List.rev p with
      | ("to_seq" | "to_seq_keys" | "to_seq_values") :: "Hashtbl" :: _ -> found := true
      | _ -> ())
    | None -> ());
    Ast_iterator.default_iterator.expr it x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let is_fun e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* Does the expression subtree contain a list cons? List literals
   desugar to [::] in the Parsetree, so this covers [x :: acc],
   [acc := x :: !acc] and [[x]] alike. *)
let builds_list (e : expression) =
  let found = ref false in
  let expr it x =
    (match x.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it x
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let rec is_catch_all (p : pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> is_catch_all q
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

let is_poly_cmp path = match path with
  | [ "compare" ] | [ "Stdlib"; "compare" ] | [ "=" ] | [ "<>" ] -> true
  | _ -> false

(* Syntactic evidence that an operand is (or projects from) a
   float-bearing record. Returns a description for the message. *)
let float_record_evidence env (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, _); _ })
    when List.mem (Longident.last txt) env.float_record_types ->
    Some (Printf.sprintf "value of float-bearing record type '%s'" (Longident.last txt))
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : Longident.t Location.loc), _) ->
             List.mem (Longident.last txt) env.float_fields)
           fields ->
    Some "record literal with a float field"
  | Pexp_field (_, { txt; _ }) when List.mem (Longident.last txt) env.float_fields ->
    Some (Printf.sprintf "float field '%s'" (Longident.last txt))
  | _ -> None

let check_expr ctx (e : expression) =
  (match e.pexp_desc with
  | Pexp_ident { txt; loc } -> (
    match Longident.flatten txt with
    | ([ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ]) when not ctx.allow_wallclock
      ->
      add ctx ~code:"D1" ~loc
        (Printf.sprintf
           "wall-clock read '%s' breaks deterministic replay; use the simulated clock, or \
            Bench_clock in the bench harness"
           (String.concat "." (Longident.flatten txt)))
    | "Random" :: _ :: _ ->
      let name = String.concat "." (Longident.flatten txt) in
      let extra =
        if Longident.last txt = "self_init" then
          " (self_init makes runs irreproducible by construction)"
        else ""
      in
      add ctx ~code:"D2" ~loc
        (Printf.sprintf
           "global randomness '%s'%s; all randomness must flow through the seeded Util.Rng"
           name extra)
    | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ :: _
      when not ctx.allow_multicore ->
      add ctx ~code:"D6" ~loc
        (Printf.sprintf
           "raw multicore primitive '%s' outside lib/par; shared state crossing domains \
            bypasses the deterministic epoch barrier — use Par.Pool / Par.Ctx"
           (String.concat "." (Longident.flatten txt)))
    | [ "Sys"; ("getenv" | "getenv_opt") ] | [ "Unix"; "getenv" ] ->
      add ctx ~code:"D10" ~loc
        (Printf.sprintf
           "environment read '%s' is a hidden knob; pass configuration through flags or \
            config records"
           (String.concat "." (Longident.flatten txt)))
    | _ -> ())
  | Pexp_try (_, cases) ->
    List.iter
      (fun c ->
        if is_catch_all c.pc_lhs then
          add ctx ~code:"D4" ~loc:c.pc_lhs.ppat_loc
            "catch-all exception handler swallows Out_of_memory/Stack_overflow and real \
             bugs; match the specific exceptions instead")
      cases
  | Pexp_apply (f, args) -> (
    (* D3 form (a): a fold/iter callback that conses, whatever the
       argument's label or position. *)
    (match hashtbl_iter_fold f with
    | Some which
      when ctx.sorted_depth = 0
           && List.exists (fun (_, cb) -> is_fun cb && builds_list cb) args ->
      add ctx ~code:"D3" ~loc:e.pexp_loc
        (Printf.sprintf
           "%s builds a list in hash order; sort the escaping result (e.g. '|> \
            List.sort compare') or keep it commutative"
           which)
    | _ -> ());
    (* D3 form (b): to_seq materialized into a list/array, directly or
       through a pipe. The pipe case fires on the pipe application so a
       [|> Seq.map ... |> List.of_seq] chain is still caught. *)
    (match is_of_seq f with
    | Some m
      when ctx.sorted_depth = 0
           && List.exists (fun (_, a) -> contains_hashtbl_to_seq a) args ->
      add ctx ~code:"D3" ~loc:e.pexp_loc
        (Printf.sprintf
           "Hashtbl.to_seq materialized via %s.of_seq escapes hash order; sort the result \
            or keep it a transient sequence"
           m)
    | _ ->
      if
        ctx.sorted_depth = 0 && is_pipe f
        && List.exists (fun (_, a) -> is_of_seq a <> None) args
        && List.exists (fun (_, a) -> contains_hashtbl_to_seq a) args
      then
        add ctx ~code:"D3" ~loc:e.pexp_loc
          "Hashtbl.to_seq materialized via of_seq escapes hash order; sort the result or \
           keep it a transient sequence");
    match (path_of f, args) with
    | Some p, [ (_, a); (_, b) ] when is_poly_cmp p -> (
      let op = String.concat "." p in
      match (float_record_evidence ctx.env a, float_record_evidence ctx.env b) with
      | Some why, _ | _, Some why ->
        add ctx ~code:"D5" ~loc:e.pexp_loc
          (Printf.sprintf
             "polymorphic '%s' applied to %s; NaN and representation changes break it — \
              use Float.compare or an explicit comparator"
             op why)
      | None, None -> ())
    | _ -> ())
  | _ -> ())

let run_rules env ~allow_wallclock ~allow_multicore (str : structure) =
  let ctx = { env; allow_wallclock; allow_multicore; sorted_depth = 0; out = [] } in
  let expr it (e : expression) =
    check_expr ctx e;
    let under_sort =
      match e.pexp_desc with
      | Pexp_apply (f, args) ->
        is_sort_fn f || (is_pipe f && List.exists (fun (_, a) -> is_sort_app a) args)
      | _ -> false
    in
    if under_sort then begin
      ctx.sorted_depth <- ctx.sorted_depth + 1;
      Ast_iterator.default_iterator.expr it e;
      ctx.sorted_depth <- ctx.sorted_depth - 1
    end
    else Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev ctx.out
