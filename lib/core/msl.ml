type node_spec = All | Nodes of int list

type statement =
  | Derived_stream of {
      name : string;
      source : string;
      pre : Expr.transform list;
    }
  | Query_def of {
      name : string;
      source : string;
      pre : Expr.transform list;
      op : Op.spec;
      window : Window.t;
      mode : Query.mode;
      striping : Query.striping;
      nodes : node_spec;
    }

type program = statement list

exception Parse_error of { line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexer.                                                               *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Duration of float (* seconds *)
  | String_lit of string
  | Punct of string (* = ( ) [ ] , *)
  | Operator of string (* == != <= >= < > && || ! + - * / % *)

type lexed = { token : token; line : int }

let error line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let lex source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push token = tokens := { token; line = !line } :: !tokens in
  while !i < n do
    let c = source.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      (* Comment to end of line. *)
      while !i < n && source.[!i] <> '\n' do
        incr i
      done
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit source.[!i + 1]) then begin
      let start = !i in
      while !i < n && (is_digit source.[!i] || source.[!i] = '.') do
        incr i
      done;
      let number = String.sub source start (!i - start) in
      (* Duration suffixes: ms, s, m (minutes), h. *)
      let suffix_start = !i in
      while !i < n && source.[!i] >= 'a' && source.[!i] <= 'z' do
        incr i
      done;
      let suffix = String.sub source suffix_start (!i - suffix_start) in
      let value () =
        try float_of_string number with Failure _ -> error !line "bad number %S" number
      in
      (match suffix with
      | "" ->
        if String.contains number '.' then push (Float_lit (value ()))
        else (
          match int_of_string_opt number with
          | Some i -> push (Int_lit i)
          | None -> error !line "integer out of range %S" number)
      | "ms" -> push (Duration (value () /. 1000.0))
      | "s" -> push (Duration (value ()))
      | "m" -> push (Duration (value () *. 60.0))
      | "h" -> push (Duration (value () *. 3600.0))
      | other -> error !line "unknown numeric suffix %S" other)
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do
        incr i
      done;
      push (Ident (String.sub source start (!i - start)))
    end
    else if c = '"' then begin
      incr i;
      let buf = Buffer.create 16 in
      let closed = ref false in
      while !i < n && not !closed do
        if source.[!i] = '"' then closed := true
        else begin
          Buffer.add_char buf source.[!i];
          if source.[!i] = '\n' then incr line
        end;
        incr i
      done;
      if not !closed then error !line "unterminated string";
      push (String_lit (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub source !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "&&" | "||" ->
        push (Operator two);
        i := !i + 2
      | _ -> (
        match c with
        | '=' | '(' | ')' | '[' | ']' | ',' -> (
          push (Punct (String.make 1 c));
          incr i)
        | '<' | '>' | '!' | '+' | '-' | '*' | '/' | '%' ->
          push (Operator (String.make 1 c));
          incr i
        | _ -> error !line "unexpected character %C" c)
    end
  done;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the token list.                      *)

type state = { mutable rest : lexed list; mutable last_line : int }

let peek st = match st.rest with [] -> None | { token; _ } :: _ -> Some token

let advance st =
  match st.rest with
  | [] -> error st.last_line "unexpected end of input"
  | { token; line } :: rest ->
    st.rest <- rest;
    st.last_line <- line;
    token

let expect_punct st p =
  match advance st with
  | Punct q when q = p -> ()
  | _ -> error st.last_line "expected %S" p

let expect_ident st =
  match advance st with
  | Ident name -> name
  | _ -> error st.last_line "expected identifier"

(* Expression grammar: disjunction of conjunctions of comparisons over
   arithmetic terms. *)
let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  match peek st with
  | Some (Operator "||") ->
    ignore (advance st);
    Expr.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match peek st with
  | Some (Operator "&&") ->
    ignore (advance st);
    Expr.And (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_additive st in
  let cmp_of = function
    | "==" -> Some Expr.Eq
    | "!=" -> Some Expr.Ne
    | "<" -> Some Expr.Lt
    | "<=" -> Some Expr.Le
    | ">" -> Some Expr.Gt
    | ">=" -> Some Expr.Ge
    | _ -> None
  in
  match peek st with
  | Some (Operator op) -> (
    match cmp_of op with
    | Some cmp ->
      ignore (advance st);
      Expr.Cmp (cmp, left, parse_additive st)
    | None -> left)
  | _ -> left

and parse_additive st =
  let left = parse_multiplicative st in
  match peek st with
  | Some (Operator "+") ->
    ignore (advance st);
    Expr.Binop (Expr.Add, left, parse_additive st)
  | Some (Operator "-") ->
    ignore (advance st);
    Expr.Binop (Expr.Sub, left, parse_additive st)
  | _ -> left

and parse_multiplicative st =
  let left = parse_unary st in
  match peek st with
  | Some (Operator "*") ->
    ignore (advance st);
    Expr.Binop (Expr.Mul, left, parse_multiplicative st)
  | Some (Operator "/") ->
    ignore (advance st);
    Expr.Binop (Expr.Div, left, parse_multiplicative st)
  | Some (Operator "%") ->
    ignore (advance st);
    Expr.Binop (Expr.Mod, left, parse_multiplicative st)
  | _ -> left

and parse_unary st =
  match peek st with
  | Some (Operator "!") ->
    ignore (advance st);
    Expr.Not (parse_unary st)
  | Some (Operator "-") ->
    ignore (advance st);
    Expr.Neg (parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match advance st with
  | Int_lit i -> Expr.Const (Value.Int i)
  | Float_lit f -> Expr.Const (Value.Float f)
  | Duration d -> Expr.Const (Value.Float d)
  | String_lit s -> Expr.Const (Value.Str s)
  | Ident "true" -> Expr.Const (Value.Bool true)
  | Ident "false" -> Expr.Const (Value.Bool false)
  | Ident "null" -> Expr.Const Value.Null
  | Ident name -> Expr.Field name
  | Punct "(" ->
    let e = parse_expr st in
    expect_punct st ")";
    e
  | _ -> error st.last_line "expected expression"

(* Operator arguments: a mix of positional values/expressions and
   key=value pairs. *)
type arg =
  | Positional of Expr.t
  | Keyword of string * Expr.t

let parse_args st =
  (* Called after the source (and its comma, when present) was consumed;
     the opening paren is already consumed too. Collect args until ')'. *)
  let args = ref [] in
  let rec loop () =
    match peek st with
    | Some (Punct ")") -> ignore (advance st)
    | _ ->
      let arg =
        match st.rest with
        | { token = Ident key; _ } :: { token = Punct "="; _ } :: _ ->
          ignore (advance st);
          ignore (advance st);
          Keyword (key, parse_expr st)
        | _ -> Positional (parse_expr st)
      in
      args := arg :: !args;
      (match peek st with
      | Some (Punct ",") ->
        ignore (advance st);
        loop ()
      | Some (Punct ")") -> ignore (advance st)
      | _ -> error st.last_line "expected ',' or ')' in argument list")
  in
  loop ();
  List.rev !args

let const_of st e =
  match e with
  | Expr.Const v -> v
  | _ -> error st.last_line "expected a constant argument"

(* Argument and clause values are checked by the functions they feed
   ([Value.to_int], [Window.time], ...); their rejections become parse
   errors at the statement's line. *)
let checked st f =
  match f () with
  | v -> v
  | exception (Value.Type_error message | Invalid_argument message) ->
    error st.last_line "%s" message

let kw st args key conv =
  List.find_map (function Keyword (k, e) when k = key -> Some e | _ -> None) args
  |> function
  | Some e -> checked st (fun () -> conv (const_of st e))
  | None -> error st.last_line "missing argument %s=" key

let kw_opt st args key ~default conv =
  match List.find_map (function Keyword (k, e) when k = key -> Some e | _ -> None) args with
  | Some e -> checked st (fun () -> conv (const_of st e))
  | None -> conv default

(* ------------------------------------------------------------------ *)
(* Statements.                                                          *)

type partial = {
  source : [ `Stream of string | `Def of string ];
  kind : [ `Pre of Expr.transform | `Agg of Op.spec ];
}

let parse_source st ~defined =
  match advance st with
  | Ident "stream" ->
    expect_punct st "(";
    let name =
      match advance st with
      | String_lit s -> s
      | _ -> error st.last_line "stream() takes a string"
    in
    expect_punct st ")";
    `Stream name
  | Ident name ->
    if not (List.mem name defined) then error st.last_line "undefined source %s" name;
    `Def name
  | _ -> error st.last_line "expected a source (stream(...) or a prior name)"

let parse_opcall st ~defined =
  let op_name = expect_ident st in
  expect_punct st "(";
  let source = parse_source st ~defined in
  (* Optional comma then arguments. *)
  let args =
    match peek st with
    | Some (Punct ",") ->
      ignore (advance st);
      parse_args st
    | Some (Punct ")") ->
      ignore (advance st);
      []
    | _ -> error st.last_line "expected ',' or ')' after source"
  in
  let positional () =
    List.filter_map (function Positional e -> Some e | Keyword _ -> None) args
  in
  let kind =
    match op_name with
    | "select" -> (
      match positional () with
      | [ predicate ] -> `Pre (Expr.Select predicate)
      | _ -> error st.last_line "select(source, predicate) takes one expression")
    | "map" ->
      let fields =
        List.filter_map (function Keyword (k, e) -> Some (k, e) | Positional _ -> None) args
      in
      if fields = [] then error st.last_line "map(source, field=expr, ...) needs fields";
      `Pre (Expr.Map fields)
    | "sum" -> `Agg Op.Sum
    | "count" -> `Agg Op.Count
    | "avg" -> `Agg Op.Avg
    | "min" -> `Agg Op.Min
    | "max" -> `Agg Op.Max
    | "entropy" -> `Agg Op.Entropy
    | "topk" ->
      let k = kw st args "k" Value.to_int in
      let key = kw st args "key" Value.to_string in
      `Agg (Op.Top_k { k; key })
    | "union" ->
      let cap = kw_opt st args "cap" ~default:(Value.Int 0) Value.to_int in
      `Agg (Op.Union { cap })
    | "histogram" ->
      let lo = kw st args "lo" Value.to_float in
      let hi = kw st args "hi" Value.to_float in
      let bins = kw st args "bins" Value.to_int in
      `Agg (Op.Histogram { lo; hi; bins })
    | "quantile" ->
      let q = kw st args "q" Value.to_float in
      let lo = kw st args "lo" Value.to_float in
      let hi = kw st args "hi" Value.to_float in
      let bins = kw_opt st args "bins" ~default:(Value.Int 64) Value.to_int in
      `Agg (Op.Quantile { q; lo; hi; bins })
    | "cm" ->
      let depth = kw_opt st args "depth" ~default:(Value.Int 4) Value.to_int in
      let width = kw_opt st args "width" ~default:(Value.Int 256) Value.to_int in
      let seed = kw_opt st args "seed" ~default:(Value.Int 7) Value.to_int in
      `Agg (Op.Sketch_count_min { depth; width; seed })
    | "agms" ->
      let rows = kw_opt st args "rows" ~default:(Value.Int 5) Value.to_int in
      let cols = kw_opt st args "cols" ~default:(Value.Int 128) Value.to_int in
      let seed = kw_opt st args "seed" ~default:(Value.Int 7) Value.to_int in
      `Agg (Op.Sketch_agms { rows; cols; seed })
    | "hll" ->
      let b = kw_opt st args "b" ~default:(Value.Int 11) Value.to_int in
      let seed = kw_opt st args "seed" ~default:(Value.Int 7) Value.to_int in
      `Agg (Op.Sketch_hll { b; seed })
    | custom ->
      if not (Op.registered custom) then error st.last_line "unknown operator %s" custom;
      let constants = List.map (const_of st) (positional ()) in
      `Agg (Op.Custom { name = custom; args = constants })
  in
  { source; kind }

let parse_clauses st =
  let window = ref None in
  let mode = ref Query.Syncless in
  let striping = ref Query.Round_robin in
  let nodes = ref All in
  let rec loop () =
    match peek st with
    | Some (Ident "window") -> (
      ignore (advance st);
      match advance st with
      | Ident "time" ->
        let dur () =
          match advance st with
          | Duration d -> d
          | Int_lit i -> float_of_int i
          | Float_lit f -> f
          | _ -> error st.last_line "expected a duration"
        in
        let range = dur () in
        let slide = dur () in
        window := Some (checked st (fun () -> Window.time ~range ~slide));
        loop ()
      | Ident "tuples" ->
        let count () =
          match advance st with
          | Int_lit i -> i
          | _ -> error st.last_line "expected a tuple count"
        in
        let range = count () in
        let slide = count () in
        window := Some (checked st (fun () -> Window.tuples ~range ~slide));
        loop ()
      | _ -> error st.last_line "window expects 'time' or 'tuples'")
    | Some (Ident "mode") -> (
      ignore (advance st);
      match advance st with
      | Ident "syncless" ->
        mode := Query.Syncless;
        loop ()
      | Ident "timestamp" ->
        mode := Query.Timestamp;
        loop ()
      | _ -> error st.last_line "mode expects 'syncless' or 'timestamp'")
    | Some (Ident "striping") -> (
      ignore (advance st);
      match advance st with
      | Ident "roundrobin" ->
        striping := Query.Round_robin;
        loop ()
      | Ident "byindex" ->
        striping := Query.By_index;
        loop ()
      | _ -> error st.last_line "striping expects 'roundrobin' or 'byindex'")
    | Some (Ident "on") -> (
      ignore (advance st);
      match advance st with
      | Ident "all" ->
        nodes := All;
        loop ()
      | Punct "[" ->
        let ids = ref [] in
        let rec elems () =
          match advance st with
          | Int_lit i -> (
            ids := i :: !ids;
            match advance st with
            | Punct "," -> elems ()
            | Punct "]" -> ()
            | _ -> error st.last_line "expected ',' or ']'")
          | Punct "]" -> ()
          | _ -> error st.last_line "expected a node id"
        in
        elems ();
        nodes := Nodes (List.rev !ids);
        loop ()
      | _ -> error st.last_line "on expects 'all' or a node list")
    | _ -> ()
  in
  loop ();
  (!window, !mode, !striping, !nodes)

let parse source_text =
  let st = { rest = lex source_text; last_line = 1 } in
  let statements = ref [] in
  let defined () = List.map (function Derived_stream { name; _ } | Query_def { name; _ } -> name) !statements in
  while st.rest <> [] do
    let name = expect_ident st in
    expect_punct st "=";
    let partial = parse_opcall st ~defined:(defined ()) in
    let window, mode, striping, nodes = parse_clauses st in
    if List.mem name (defined ()) then error st.last_line "duplicate definition of %s" name;
    (* Resolve the source chain: a derived-stream source contributes its
       transforms; a query source becomes a subscription to its output. *)
    let resolve src =
      match src with
      | `Stream s -> (s, [])
      | `Def def -> (
        match
          List.find
            (function
              | Derived_stream { name; _ } | Query_def { name; _ } -> name = def)
            !statements
        with
        | Derived_stream { source; pre; _ } -> (source, pre)
        | Query_def { name; _ } -> (name, []))
    in
    let source, inherited = resolve partial.source in
    let statement =
      match partial.kind with
      | `Pre transform ->
        (if window <> None then
           error st.last_line "select/map define streams and take no window");
        Derived_stream { name; source; pre = inherited @ [ transform ] }
      | `Agg op ->
        Query_def
          {
            name;
            source;
            pre = inherited;
            op;
            window = Option.value window ~default:(Window.tumbling 1.0);
            mode;
            striping;
            nodes;
          }
    in
    statements := statement :: !statements
  done;
  List.rev !statements

let query_metas program ~root ~total_nodes () =
  List.filter_map
    (function
      | Derived_stream _ -> None
      | Query_def { name; source; pre; op; window; mode; striping; nodes } ->
        let total =
          match nodes with All -> total_nodes | Nodes l -> List.length l
        in
        let meta =
          Query.make_meta ~name ~source ~pre ~op ~window ~mode ~striping ~root
            ~total_nodes:total ()
        in
        Some (meta, nodes))
    program

let statement_name = function
  | Derived_stream { name; _ } | Query_def { name; _ } -> name
