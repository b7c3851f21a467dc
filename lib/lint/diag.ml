(* A single lint finding: rule code + source position + human message.
   Rendering is one line per finding so golden tests can diff output. *)

type t = {
  code : string; (* "D1".."D12", or "S1"/"S2" for suppression hygiene *)
  file : string;
  line : int;
  col : int;
  message : string;
}

let make ~code ~loc ~message =
  let p = loc.Location.loc_start in
  {
    code;
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    message;
  }

let order a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c else compare a.code b.code

let to_string d = Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.code d.message

let render diags = String.concat "\n" (List.map to_string diags)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json d =
  Printf.sprintf "{\"code\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (json_string d.code) (json_string d.file) d.line d.col (json_string d.message)
