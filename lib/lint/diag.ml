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

let to_json d =
  let json_string = Mortar_obs.Obs.json_string in
  Printf.sprintf "{\"code\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (json_string d.code) (json_string d.file) d.line d.col (json_string d.message)
