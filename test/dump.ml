(* Tests read an Obs registry the way users read a run: through its
   JSON-lines dumps, parsed back by Obs_json. There is no other read
   path. *)

module Obs = Mortar_obs.Obs
module J = Mortar_obs.Obs_json

let parse what decode line =
  match decode line with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%s line does not parse (%s): %s" what e line)

let metrics r = List.map (parse "metric" J.metric_of_line) (Obs.Reg.metrics_lines r)

(* Oldest first. *)
let events r = List.map (parse "trace" J.event_of_line) (Obs.Reg.trace_lines r)

(* Parses the dump once; the lookup reads a counter's value by scope
   ("global", "node:17", "query:q") and name, and 0 when the dump has
   no line for it. *)
let counters r =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | J.Counter { scope; name; value } -> Hashtbl.replace tbl (scope, name) (int_of_float value)
      | J.Gauge _ | J.Histogram _ -> ())
    (metrics r);
  fun ?(scope = "global") name -> Option.value (Hashtbl.find_opt tbl (scope, name)) ~default:0

let histogram r ?(scope = "global") name =
  List.find_opt
    (function
      | J.Histogram h -> String.equal h.scope scope && String.equal h.name name
      | J.Counter _ | J.Gauge _ -> false)
    (metrics r)
