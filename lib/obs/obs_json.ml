(* Recursive-descent JSON, sized for one dump line at a time. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when Char.equal c' c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal w v =
    if String.length w <= n - !pos && String.equal (String.sub s !pos (String.length w)) w then begin
      pos := !pos + String.length w;
      v
    end
    else fail ("expected " ^ w)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else if Char.equal s.[!pos] '"' then incr pos
      else begin
        (match s.[!pos] with
        | '\\' ->
          if !pos + 1 >= n then fail "truncated escape";
          (match s.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 5 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 2) 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> fail "bad \\u escape"
            in
            (* The emitter only writes \u00XX for control chars; anything
               outside one byte is replaced, not decoded. *)
            if code < 256 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?';
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          pos := !pos + 2
        | c ->
          Buffer.add_char b c;
          incr pos);
        loop ()
      end
    in
    loop ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          List.rev ((k, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      Obj (members [])
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elements (v :: acc)
        | Some ']' ->
          incr pos;
          List.rev (v :: acc)
        | _ -> fail "expected ',' or ']'"
      in
      Arr (elements [])
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Bad m -> Error m

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* ------------------------------------------------------------------ *)
(* Typed decoding of the two line formats.                             *)

type metric =
  | Counter of { scope : string; name : string; value : float }
  | Gauge of { scope : string; name : string; value : float }
  | Histogram of {
      scope : string;
      name : string;
      buckets : float array;
      counts : float array;
      overflow : float;
      sum : float;
      count : float;
    }

let metric_scope = function
  | Counter { scope; _ } | Gauge { scope; _ } | Histogram { scope; _ } -> scope

let metric_name = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } -> name

let num_field j k =
  match member k j with
  | Some (Num f) -> Ok f
  | Some Null -> Ok Float.nan
  | _ -> Error (Printf.sprintf "missing numeric field %S" k)

let str_field j k =
  match member k j with
  | Some (Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" k)

let num_array_field j k =
  match member k j with
  | Some (Arr items) ->
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | Num f :: rest -> go (f :: acc) rest
      | Null :: rest -> go (Float.nan :: acc) rest
      | _ -> Error (Printf.sprintf "non-numeric element in %S" k)
    in
    go [] items
  | _ -> Error (Printf.sprintf "missing array field %S" k)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let metric_of_line line =
  let* j = parse line in
  let* kind = str_field j "metric" in
  let* scope = str_field j "scope" in
  let* name = str_field j "name" in
  match kind with
  | "counter" ->
    let* value = num_field j "value" in
    Ok (Counter { scope; name; value })
  | "gauge" ->
    let* value = num_field j "value" in
    Ok (Gauge { scope; name; value })
  | "histogram" ->
    let* buckets = num_array_field j "buckets" in
    let* counts = num_array_field j "counts" in
    let* overflow = num_field j "overflow" in
    let* sum = num_field j "sum" in
    let* count = num_field j "count" in
    Ok (Histogram { scope; name; buckets; counts; overflow; sum; count })
  | other -> Error ("unknown metric kind " ^ other)

let int_field j k =
  let* f = num_field j k in
  Ok (int_of_float f)

let prov_field j =
  match member "prov" j with
  | Some (Arr items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Arr [ Num a; Num b ] :: rest -> go ((int_of_float a, int_of_float b) :: acc) rest
      | _ -> Error "malformed prov pair"
    in
    go [] items
  | _ -> Error "missing prov field"

let event_of_line line =
  let* j = parse line in
  let* stamp = num_field j "t" in
  let* name = str_field j "event" in
  let* ev =
    match name with
    | "tuple_send" ->
      let* src = int_field j "src" in
      let* dst = int_field j "dst" in
      let* kind = str_field j "kind" in
      let* size = int_field j "size" in
      Ok (Obs.Tuple_send { src; dst; kind; size })
    | "tuple_recv" ->
      let* src = int_field j "src" in
      let* dst = int_field j "dst" in
      let* kind = str_field j "kind" in
      Ok (Obs.Tuple_recv { src; dst; kind })
    | "tuple_drop" ->
      let* src = int_field j "src" in
      let* dst = int_field j "dst" in
      let* kind = str_field j "kind" in
      let* reason = str_field j "reason" in
      Ok (Obs.Tuple_drop { src; dst; kind; reason })
    | "ts_merge" ->
      let* node = int_field j "node" in
      let* query = str_field j "query" in
      Ok (Obs.Ts_merge { node; query })
    | "orphaned" ->
      let* node = int_field j "node" in
      let* query = str_field j "query" in
      Ok (Obs.Orphaned { node; query })
    | "reparent" ->
      let* node = int_field j "node" in
      let* query = str_field j "query" in
      let* tree = int_field j "tree" in
      let* from_parent = int_field j "from_parent" in
      let* to_parent = int_field j "to_parent" in
      let* donor = str_field j "donor" in
      Ok (Obs.Reparent { node; query; tree; from_parent; to_parent; donor })
    | "reconcile_round" ->
      let* node = int_field j "node" in
      let* partner = int_field j "partner" in
      Ok (Obs.Reconcile_round { node; partner })
    | "query_install" ->
      let* node = int_field j "node" in
      let* query = str_field j "query" in
      Ok (Obs.Query_install { node; query })
    | "window_close" ->
      let* slot = int_field j "slot" in
      let* count = int_field j "count" in
      Ok (Obs.Window_close { slot; count })
    | "node_down" ->
      let* node = int_field j "node" in
      Ok (Obs.Node_down { node })
    | "node_up" ->
      let* node = int_field j "node" in
      Ok (Obs.Node_up { node })
    | "crash" ->
      let* node = int_field j "node" in
      Ok (Obs.Crash { node })
    | "fault_start" ->
      let* fault = str_field j "fault" in
      Ok (Obs.Fault_start { fault })
    | "fault_stop" ->
      let* fault = str_field j "fault" in
      Ok (Obs.Fault_stop { fault })
    | "result" ->
      let* query = str_field j "query" in
      let* slot = int_field j "slot" in
      let* count = int_field j "count" in
      let* value = num_field j "value" in
      let* hops = int_field j "hops" in
      let* hops_max = int_field j "hops_max" in
      let* age = num_field j "age" in
      let* prov = prov_field j in
      Ok (Obs.Result { query; slot; count; value; hops; hops_max; age; prov })
    | other -> Error ("unknown event " ^ other)
  in
  Ok (stamp, ev)
