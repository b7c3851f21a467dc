(* obs_check: gate a metrics dump against a checked-in baseline.

   Usage: obs_check CURRENT BASELINE [--abs X] [--rel Y]

   Both files are JSON-lines metrics dumps as written by --metrics-out.
   Every metric present in the baseline must exist in the current dump
   and agree within tolerance: |cur - base| <= abs OR |cur - base| <=
   rel * |base|. Counters and gauges compare their value; histograms
   compare count, sum, overflow and every bucket count (bucket edges
   must match exactly). Metrics present in the current dump but not in
   the baseline fail too, so a renamed metric cannot silently drop out
   of the gate. *)

open Cmdliner
module Obs = Mortar_obs.Obs
module J = Mortar_obs.Obs_json

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (if String.trim line = "" then acc else line :: acc)
        | None -> List.rev acc
      in
      go [])

let load path =
  List.map
    (fun line ->
      match J.metric_of_line line with
      | Ok m -> ((J.metric_scope m, J.metric_name m), m)
      | Error e -> failwith (Printf.sprintf "%s: bad metric line (%s): %s" path e line))
    (read_lines path)

type verdict = { mutable failures : int; mutable compared : int }

let fail v fmt =
  v.failures <- v.failures + 1;
  Printf.printf "FAIL ";
  Printf.kfprintf (fun oc -> output_char oc '\n') stdout fmt

let within ~abs_tol ~rel_tol ~base ~cur =
  let d = Float.abs (cur -. base) in
  d <= abs_tol || d <= rel_tol *. Float.abs base

let check_num v ~abs_tol ~rel_tol ~scope ~name ~what ~base ~cur =
  v.compared <- v.compared + 1;
  if not (within ~abs_tol ~rel_tol ~base ~cur) then
    fail v "%s/%s %s: current %s vs baseline %s (abs %s, rel %s)" scope name what
      (Obs.json_float cur) (Obs.json_float base)
      (Obs.json_float abs_tol) (Obs.json_float rel_tol)

let arrays_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (Float.equal x b.(i)) then ok := false) a;
      !ok)

let check_metric v ~abs_tol ~rel_tol ~scope ~name base cur =
  match (base, cur) with
  | J.Counter { value = b; _ }, J.Counter { value = c; _ }
  | J.Gauge { value = b; _ }, J.Gauge { value = c; _ } ->
    check_num v ~abs_tol ~rel_tol ~scope ~name ~what:"value" ~base:b ~cur:c
  | J.Histogram hb, J.Histogram hc ->
    if not (arrays_equal hb.buckets hc.buckets) then
      fail v "%s/%s: histogram bucket edges differ" scope name
    else begin
      check_num v ~abs_tol ~rel_tol ~scope ~name ~what:"count" ~base:hb.count ~cur:hc.count;
      check_num v ~abs_tol ~rel_tol ~scope ~name ~what:"sum" ~base:hb.sum ~cur:hc.sum;
      check_num v ~abs_tol ~rel_tol ~scope ~name ~what:"overflow" ~base:hb.overflow
        ~cur:hc.overflow;
      Array.iteri
        (fun i b ->
          check_num v ~abs_tol ~rel_tol ~scope ~name
            ~what:(Printf.sprintf "bucket[%d]" i)
            ~base:b ~cur:hc.counts.(i))
        hb.counts
    end
  | _ ->
    let kind = function
      | J.Counter _ -> "counter"
      | J.Gauge _ -> "gauge"
      | J.Histogram _ -> "histogram"
    in
    fail v "%s/%s: kind changed (baseline %s, current %s)" scope name (kind base) (kind cur)

let run current baseline abs_tol rel_tol =
  match (load current, load baseline) with
  | exception Failure msg ->
    prerr_endline msg;
    1
  | exception Sys_error msg ->
    prerr_endline msg;
    1
  | cur, base ->
    let v = { failures = 0; compared = 0 } in
    List.iter
      (fun ((scope, name), bm) ->
        match List.assoc_opt (scope, name) cur with
        | None -> fail v "%s/%s: missing from current dump" scope name
        | Some cm -> check_metric v ~abs_tol ~rel_tol ~scope ~name bm cm)
      base;
    List.iter
      (fun ((scope, name), _) ->
        if List.assoc_opt (scope, name) base = None then
          fail v "%s/%s: not in baseline (update the baseline)" scope name)
      cur;
    if v.failures = 0 then begin
      Printf.printf "obs_check OK: %d comparison(s) across %d baseline metric(s)\n"
        v.compared (List.length base);
      0
    end
    else begin
      Printf.printf "obs_check FAILED: %d failure(s) over %d comparison(s)\n" v.failures
        v.compared;
      1
    end

let cmd =
  let current =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"CURRENT" ~doc:"Metrics dump to check (JSON lines).")
  in
  let baseline =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"BASELINE" ~doc:"Checked-in baseline dump (JSON lines).")
  in
  let abs_tol =
    Arg.(
      value & opt float 0.0
      & info [ "abs" ] ~docv:"X" ~doc:"Absolute tolerance per compared number.")
  in
  let rel_tol =
    Arg.(
      value & opt float 0.0
      & info [ "rel" ] ~docv:"Y"
          ~doc:"Relative tolerance per compared number (fraction of the baseline).")
  in
  Cmd.v
    (Cmd.info "obs_check" ~version:"1.0.0"
       ~doc:"Diff a metrics dump against a baseline with abs/rel tolerances.")
    Term.(const run $ current $ baseline $ abs_tol $ rel_tol)

let () = exit (Cmd.eval' cmd)
