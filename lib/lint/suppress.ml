(* Inline suppressions: the one way to silence a finding.

   A finding of code C on line L is suppressed when the source carries
   an allow comment on line L itself or on line L-1 (comment-above
   style): an OCaml comment whose text reads "lint:", then "allow",
   then one or more rule codes, then a free-form reason. Several codes
   may be listed in one comment; the code list is the leading run of
   D<digits> tokens (the reason never re-opens it, so prose mentioning a
   rule by name does not widen the suppression). The codes in use are
   D1-D6 and D10 (syntactic) and D7-D9 and D11-D12 (typed); multi-digit
   codes such as D10 parse like any other.

   Every parsed comment is tracked: [allows] marks the codes that
   actually shield a finding, so the driver can report the ones that no
   longer match anything (stale suppressions) and comments that carry
   the "lint:" marker but do not parse (malformed — reported, never
   silently ignored). *)

type entry = {
  e_line : int;
  e_codes : string list;
  mutable e_used : string list; (* codes that shielded at least one finding *)
}

type t = {
  entries : entry list;
  malformed : (int * string) list; (* line, what is wrong with it *)
}

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  if from > n then None else go from

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun tok -> tok <> "")

let is_code tok =
  String.length tok >= 2
  && tok.[0] = 'D'
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub tok 1 (String.length tok - 1))

(* A token that was probably meant as a code: lowercase d, or a bare D. *)
let looks_like_code tok =
  String.length tok >= 1
  && (tok.[0] = 'd' || tok.[0] = 'D')
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub tok 1 (String.length tok - 1))

(* Parse one line. [None] when it carries no lint directive at all;
   [Some (Ok codes)] for a well-formed allow comment; [Some (Error what)]
   for a malformed one. *)
let parse_line line =
  match find_sub line "lint:" 0 with
  | None -> None
  | Some i ->
    let rest = String.sub line (i + 5) (String.length line - i - 5) in
    let rest =
      match find_sub rest "*)" 0 with Some j -> String.sub rest 0 j | None -> rest
    in
    (match split_ws rest with
    | "allow" :: toks ->
      (* The code list is the leading run of valid codes. *)
      let rec take acc = function
        | tok :: more when is_code tok -> take (tok :: acc) more
        | more -> (List.rev acc, more)
      in
      let codes, after = take [] toks in
      if codes <> [] then Some (Ok codes)
      else if List.exists looks_like_code after then
        Some
          (Error
             "allow comment with a malformed rule code (codes are 'D' + digits, \
              e.g. D3)")
      else Some (Error "allow comment lists no rule codes")
    | tok :: _ when String.lowercase_ascii tok = "allow" ->
      Some (Error (Printf.sprintf "'%s' is not a lint directive; write 'allow'" tok))
    | _ ->
      (* "lint:" followed by something else entirely is not treated as a
         directive — prose may legitimately contain the word. *)
      None)

let of_source text : t =
  let entries = ref [] and malformed = ref [] in
  List.iteri
    (fun i line ->
      match parse_line line with
      | None -> ()
      | Some (Ok codes) ->
        entries := { e_line = i + 1; e_codes = codes; e_used = [] } :: !entries
      | Some (Error what) -> malformed := (i + 1, what) :: !malformed)
    (String.split_on_char '\n' text);
  { entries = List.rev !entries; malformed = List.rev !malformed }

(* Does some entry shield (code, line)? Marks the entry used on match. *)
let allows (t : t) ~line ~code =
  let hit = ref false in
  List.iter
    (fun e ->
      if (e.e_line = line || e.e_line + 1 = line) && List.mem code e.e_codes then begin
        hit := true;
        if not (List.mem code e.e_used) then e.e_used <- code :: e.e_used
      end)
    t.entries;
  !hit

(* (line, code) pairs that never shielded a finding, for the given set
   of checkable codes (when the typed passes did not run, D7-D9 and
   D11-D12 allows cannot be judged and must be excluded by the caller). *)
let stale_entries (t : t) ~checkable =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun c ->
          if checkable c && not (List.mem c e.e_used) then Some (e.e_line, c) else None)
        e.e_codes)
    t.entries

let malformed (t : t) = t.malformed
