(* Figure 15 (§7.2.2): churn. Disconnect 10% of the nodes; every 10
   seconds reconnect half of the failed set and fail a fresh 5%. The
   paper: "Mortar always reconnects all live nodes before the 10 seconds
   are up"; completeness tracks the live-node line, path length and load
   match the rolling-failure runs. *)

module D = Mortar_emul.Deployment

let run ~quick =
  let hosts = if quick then 240 else 680 in
  let h = Harness.create ~seed:23 ~hosts () in
  let d = Harness.deployment h in
  let down = ref [] in
  let rng = Mortar_util.Rng.create 4242 in
  let churn_start = 30.0 in
  let churn_end = if quick then 90.0 else 120.0 in
  D.at d churn_start (fun () -> down := Harness.fail_fraction h 0.1);
  let rec churn_step time =
    if time < churn_end then
      D.at d time (fun () ->
          (* Reconnect half of the failed set... *)
          let n_back = List.length !down / 2 in
          let back = List.filteri (fun i _ -> i < n_back) !down in
          Harness.reconnect h back;
          down := List.filteri (fun i _ -> i >= n_back) !down;
          (* ... and fail a fresh 5%. *)
          let fresh = ref [] in
          let up = D.up_hosts d in
          let candidates = Array.of_list (List.filter (fun x -> x <> 0) up) in
          let want = hosts / 20 in
          let victims = Mortar_util.Rng.sample rng candidates (min want (Array.length candidates)) in
          Array.iter
            (fun v ->
              D.set_up d v false;
              fresh := v :: !fresh)
            victims;
          down := !down @ !fresh;
          churn_step (time +. 10.0))
  in
  churn_step (churn_start +. 10.0);
  (* Sample the live-node count every 5 s while the run progresses. *)
  let live_samples = Hashtbl.create 64 in
  let rec sample time =
    if time <= churn_end +. 30.0 then
      D.at d time (fun () ->
          Hashtbl.replace live_samples (int_of_float time) (List.length (D.up_hosts d));
          sample (time +. 5.0))
  in
  sample 0.0;
  Harness.run_until h (churn_end +. 30.0);
  Common.table ~columns:[ "t"; "completeness"; "live"; "path-len" ] (fun () ->
      List.filter_map
        (fun k ->
          let t0 = float_of_int (k * 5) and t1 = float_of_int ((k + 1) * 5) in
          if t0 < 20.0 || t1 > churn_end +. 30.0 then None
          else
            Some
              [
                Printf.sprintf "%.0f" t0;
                Common.cell_pct (Harness.mean_completeness h t0 t1 ~denominator:hosts);
                Common.cell_pct
                  (float_of_int
                     (Option.value
                        (Hashtbl.find_opt live_samples (int_of_float t0))
                        ~default:hosts)
                  /. float_of_int hosts);
                Common.cell_f (Harness.mean_path_length h t0 t1);
              ])
        (List.init ((int_of_float churn_end + 30) / 5) Fun.id))

let experiment =
  {
    Common.id = "fig15";
    title = "Churn: 10% down, 5% swapped every 10 s";
    paper_claim =
      "completeness tracks the live-node line; all live nodes reconnect within each \
       10 s epoch; path length as in the rolling-failure run";
    run;
  }
