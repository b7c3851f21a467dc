(* Figure 14 (§7.2.2): responsiveness under rolling failures. Disconnect
   10/20/30/40% of nodes for 60 seconds each, with recovery in between;
   plot completeness, tuple path length, and total network load over time.
   The paper reports: stable results ~7 s after each failure (2 s
   heartbeats), average result latency 4.5 s, path length 4 without
   failures (+3 extra hops under 40% failures), steady-state load
   12.5 Mbps of which 3.4 Mbps is heartbeats, and twice the load without
   in-network aggregation. *)

type phase = { start : float; fraction : float }

let phases = [ { start = 60.0; fraction = 0.1 }; { start = 180.0; fraction = 0.2 };
               { start = 300.0; fraction = 0.3 }; { start = 420.0; fraction = 0.4 } ]

let run ~quick =
  let hosts = if quick then 240 else 680 in
  let down_time = 60.0 in
  let h = Harness.create ~seed:17 ~hosts () in
  let d = Harness.deployment h in
  List.iter
    (fun { start; fraction } ->
      Mortar_emul.Deployment.at d start (fun () ->
          let victims = Harness.fail_fraction h fraction in
          Mortar_emul.Deployment.at d (start +. down_time) (fun () ->
              Harness.reconnect h victims)))
    phases;
  let stop = 540.0 in
  Harness.run_until h stop;
  (* Time series, 10-second buckets. *)
  Printf.printf "time series (10s buckets):\n";
  Common.table
    ~columns:[ "t"; "completeness"; "path-len"; "path-max"; "latency(s)"; "load(Mbps)"; "hb(Mbps)" ]
    (fun () ->
      List.filter_map
        (fun k ->
          let t0 = float_of_int (k * 10) and t1 = float_of_int ((k + 1) * 10) in
          if t0 < 20.0 then None
          else begin
            let comp = Harness.mean_completeness h t0 t1 ~denominator:hosts in
            Some
              [
                Printf.sprintf "%.0f" t0;
                Common.cell_pct comp;
                Common.cell_f (Harness.mean_path_length h t0 t1);
                Common.cell_f (Harness.mean_max_path_length h t0 t1);
                Common.cell_f (Harness.mean_latency h t0 t1);
                Common.cell_f (Harness.mbps (Harness.deployment h) t0 t1);
                Common.cell_f (Harness.kind_mbps h ~kind:"heartbeat" t0 t1);
              ]
          end)
        (List.init (int_of_float stop / 10) Fun.id));
  (* Summary vs the paper's headline numbers. *)
  let steady0, steady1 = (30.0, 60.0) in
  let total = Harness.mbps (Harness.deployment h) steady0 steady1 in
  let hb = Harness.kind_mbps h ~kind:"heartbeat" steady0 steady1 in
  Printf.printf
    "\nsteady state: load %.2f Mbps (heartbeats %.2f), latency %.2f s, path length %.2f (max %.2f)\n"
    total hb
    (Harness.mean_latency h steady0 steady1)
    (Harness.mean_path_length h steady0 steady1)
    (Harness.mean_max_path_length h steady0 steady1);
  let f40 = List.nth phases 3 in
  Printf.printf "path length under 40%% failures: mean %.2f, max %.2f (paper: +3 extra hops)\n"
    (Harness.mean_path_length h (f40.start +. 10.0) (f40.start +. 50.0))
    (Harness.mean_max_path_length h (f40.start +. 10.0) (f40.start +. 50.0));
  let last = List.nth phases 3 in
  (* Recovery time: first instant after the failure's effect shows in the
     result stream (result latency lags ~5 s) at which completeness is back
     at the live-node level and stays there for two consecutive seconds. *)
  (* 0.94: the plateau sits a within a point or two of the live fraction
     (union-disconnected survivors are excluded), so a tighter threshold
     never triggers. *)
  let threshold = (1.0 -. last.fraction) *. 0.94 in
  let effect_at =
    let rec dip t =
      if t > last.start +. 30.0 then last.start
      else if Harness.mean_completeness h t (t +. 2.0) ~denominator:hosts < threshold then t
      else dip (t +. 1.0)
    in
    dip last.start
  in
  let rec find_recovery t =
    if t > last.start +. 60.0 then nan
    else begin
      let a = Harness.mean_completeness h t (t +. 2.0) ~denominator:hosts in
      let b = Harness.mean_completeness h (t +. 2.0) (t +. 4.0) ~denominator:hosts in
      if a >= threshold && b >= threshold then t -. last.start else find_recovery (t +. 1.0)
    end
  in
  Printf.printf "recovery after 40%% failure: results reflect it at +%.0f s, stable %.1f s after onset\n"
    (effect_at -. last.start) (find_recovery effect_at);
  (* The no-aggregation comparison: same workload, relays forward without
     merging. *)
  let h2 = Harness.create ~seed:17 ~hosts ~aggregate:false () in
  Harness.run_until h2 60.0;
  let no_agg = Harness.mbps (Harness.deployment h2) 30.0 60.0 in
  Printf.printf "no-aggregation load: %.2f Mbps (%.1fx the aggregated load)\n" no_agg
    (no_agg /. total)

let experiment =
  {
    Common.id = "fig14";
    title = "Rolling failures: completeness, path length, and network load";
    paper_claim =
      "stable results ~7 s after failures; latency ~4.5 s; path length 4 (+3 under \
       40% failures); 12.5 Mbps steady (3.4 heartbeats); 2x load without aggregation";
    run;
  }
