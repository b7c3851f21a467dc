(* The mortar command-line tool.

   - [mortar experiments [--quick] [ID ...]] reruns the paper's evaluation
     (all experiments, or selected by id);
   - [mortar list] shows the experiment registry;
   - [mortar run QUERY.msl [--hosts N] [--duration S]] compiles a Mortar
     Stream Language program, deploys it on a simulated federation, feeds
     a synthetic sensor stream, and prints the root's results — the
     quickest way to play with the system. *)

open Cmdliner
module Obs = Mortar_obs.Obs
module Common = Mortar_experiments.Common
module Registry = Mortar_experiments.Registry

(* ------------------------------------------------------------------ *)
(* Observability sinks, shared by `experiments` and `run`: when either
   output is requested, turn the default registry on for the duration
   and dump it afterwards as JSON lines. *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics registry (counters, gauges, histograms) as JSON lines.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the structured event trace (sim-time stamped) as JSON lines.")

(* Execution width of the sharded simulation runtime. Output is
   byte-identical for every value (the logical decomposition is fixed by
   the topology); this only sets how many domains run shard slices. *)
let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Run the simulation on $(docv) domains (OCaml 5 only; 1 = sequential). Results \
           are byte-identical for any N.")

let set_domains n = Mortar_emul.Deployment.default_domains := max 1 n

let with_obs ~metrics_out ~trace_out f =
  if metrics_out <> None || trace_out <> None then begin
    Obs.enabled := true;
    Obs.Reg.clear Obs.default
  end;
  let r = f () in
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.metrics_lines Obs.default)) metrics_out;
  Option.iter (fun p -> Obs.write_lines p (Obs.Reg.trace_lines Obs.default)) trace_out;
  r

(* ------------------------------------------------------------------ *)
(* experiments                                                          *)

let experiments_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scaled-down configurations (fast).")
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let run quick domains metrics_out trace_out ids =
    set_domains domains;
    let missing = List.filter (fun id -> Option.is_none (Registry.find id)) ids in
    if missing <> [] then `Error (false, "unknown experiment(s): " ^ String.concat ", " missing)
    else begin
      let selected = if ids = [] then Registry.all else List.filter_map Registry.find ids in
      with_obs ~metrics_out ~trace_out (fun () ->
          List.iter
            (fun (e : Common.experiment) ->
              Common.header e;
              e.run ~quick)
            selected);
      `Ok ()
    end
  in
  let info =
    Cmd.info "experiments" ~doc:"Reproduce the paper's figures (tables on stdout)."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ quick $ domains_arg $ metrics_out_arg $ trace_out_arg $ ids))

let list_cmd =
  let run () =
    List.iter (fun (e : Common.experiment) -> Printf.printf "%-8s %s\n" e.id e.title) Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List reproduction experiments.") Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run: deploy an MSL program on a simulated federation                 *)

let run_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some non_dir_file) None
      & info [] ~docv:"QUERY.msl" ~doc:"MSL program.")
  in
  let hosts =
    Arg.(value & opt int 64 & info [ "hosts" ] ~doc:"Number of simulated peers.")
  in
  let duration =
    Arg.(value & opt float 30.0 & info [ "duration" ] ~doc:"Simulated seconds to run.")
  in
  let sensor_rate =
    Arg.(value & opt float 1.0 & info [ "rate" ] ~doc:"Sensor tuples per second per node.")
  in
  let run file hosts duration sensor_rate domains metrics_out trace_out =
    Mortar_wifi.Wifi.register_trilat ();
    set_domains domains;
    let text =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Mortar_core.Msl.parse text with
    | exception Mortar_core.Msl.Parse_error { line; message } ->
      `Error (false, Printf.sprintf "%s:%d: %s" file line message)
    | program ->
      with_obs ~metrics_out ~trace_out @@ fun () ->
      let rng = Mortar_util.Rng.create 2024 in
      let topo =
        Mortar_net.Topology.transit_stub rng ~transits:4
          ~stubs:(max 4 (hosts / 20))
          ~hosts ()
      in
      let d = Mortar_emul.Deployment.create_sharded ~seed:2024 topo in
      Mortar_emul.Deployment.converge_coordinates d ();
      let metas = Mortar_core.Msl.query_metas program ~root:0 ~total_nodes:hosts () in
      List.iter
        (fun ((meta : Mortar_core.Query.meta), nodes) ->
          let node_array =
            match nodes with
            | Mortar_core.Msl.All -> Array.init (hosts - 1) (fun i -> i + 1)
            | Mortar_core.Msl.Nodes l -> Array.of_list (List.filter (fun n -> n <> 0) l)
          in
          let treeset =
            if Array.length node_array = 0 then
              Mortar_overlay.Treeset.random rng ~bf:2 ~d:1 ~root:0 ~nodes:node_array
            else
              Mortar_emul.Deployment.plan d ~bf:(min 16 (max 2 (hosts / 8))) ~root:0
                ~nodes:node_array ()
          in
          Mortar_emul.Deployment.at d 1.0 (fun () ->
              Mortar_core.Peer.install_query (Mortar_emul.Deployment.peer d 0) meta treeset))
        metas;
      (* Synthetic sensor: every node emits records {value; node} on every
         stream name the program sources. *)
      let sources =
        List.filter_map
          (function
            | Mortar_core.Msl.Derived_stream { source; _ }
            | Mortar_core.Msl.Query_def { source; _ } ->
              if List.exists (fun s -> Mortar_core.Msl.statement_name s = source) program
              then None
              else Some source)
          program
        |> List.sort_uniq compare
      in
      List.iter
        (fun stream ->
          for node = 0 to hosts - 1 do
            (* Scalar payloads feed aggregates directly and still expose a
               "value" field to select/map expressions. *)
            Mortar_emul.Deployment.sensor d ~node ~stream ~period:(1.0 /. sensor_rate)
              (fun k -> Mortar_core.Value.Float (float_of_int ((node + k) mod 100)))
          done)
        sources;
      Mortar_core.Peer.on_result
        (Mortar_emul.Deployment.peer d 0)
        (fun (r : Mortar_core.Peer.result) ->
          Printf.printf "[%8.2fs] %s slot=%d count=%d value=%s\n"
            (Mortar_emul.Deployment.now d) r.query r.slot r.count
            (Mortar_core.Value.show r.value));
      Mortar_emul.Deployment.run_until d duration;
      `Ok ()
  in
  let info = Cmd.info "run" ~doc:"Run an MSL program on a simulated federation." in
  Cmd.v info
    Term.(
      ret
        (const run $ file $ hosts $ duration $ sensor_rate $ domains_arg $ metrics_out_arg
       $ trace_out_arg))

let main =
  let info =
    Cmd.info "mortar" ~version:"1.0.0"
      ~doc:"Mortar: wide-scale data stream management (reproduction)"
  in
  Cmd.group info [ experiments_cmd; list_cmd; run_cmd ]

let () = exit (Cmd.eval main)
