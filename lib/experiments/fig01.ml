(* Figure 1 (§2.1): result completeness under uniformly random link
   failures for single tree, static striping, mirroring (D=2, 10), and
   dynamic striping (D=2, 4), over random trees with branching factor 32.
   The paper uses 10k nodes and 400 trials; quick mode scales down. *)

module C = Mortar_overlay.Connectivity

let schemes =
  [
    C.Single_tree;
    C.Static_striping 4;
    C.Mirroring 2;
    C.Mirroring 10;
    C.Dynamic_striping 2;
    C.Dynamic_striping 4;
  ]

let failure_levels = [ 0.0; 0.05; 0.10; 0.15; 0.20; 0.25; 0.30; 0.35; 0.40 ]

let run ~quick =
  let n = if quick then 2000 else 10000 in
  (* 120 trials at full scale: the paper averages 400, but the mean is
     stable to well under a point by 100 trials and the harness budget is
     finite; quick mode scales down further. *)
  let trials = if quick then 40 else 120 in
  Common.table
    ~columns:
      ("failures"
      :: List.map (fun s -> C.scheme_name s) schemes)
    (fun () ->
      List.map
        (fun p ->
          Printf.sprintf "%.0f%%" (100.0 *. p)
          :: List.map
               (fun scheme ->
                 Printf.sprintf "%.1f" (C.run_trials ~seed:11 ~n ~bf:32 ~trials ~link_failure:p scheme))
               schemes)
        failure_levels)

let experiment =
  {
    Common.id = "fig01";
    title = "Completeness under uniform link failures (simulation)";
    paper_claim =
      "striping ~= single tree; mirroring D=10 gains ~10% at 20% failures for 10x \
       bandwidth; dynamic striping D=4 stays near optimal";
    run;
  }
