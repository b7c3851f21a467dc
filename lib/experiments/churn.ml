(* Churn/partition scenario (beyond the paper's figures): exercises the
   fault scheduler end to end.

   Phase 1 — a whole stub domain loses its transit uplink mid-run and
   heals later. Completeness at the root should drop by roughly the
   partitioned fraction while the cut is active and recover after the
   heal. The phase runs once per seed in {73, 74, 75} (fresh topology,
   plan and fault draw each) and reports the pooled mean per interval —
   the same 3-seed pooling convention the integration tests use — so a
   single lucky plan cannot carry the claim.

   Phase 2 — a correlated crash: half of another stub's hosts die at
   once, recover with total state loss, and are re-installed by
   reconciliation.

   The gate (CI greps the "churn gate:" line): across every seed, no
   reported window counts more hosts than exist. A rejoining host that
   re-enters on a shifted slot grid is counted twice in one window.

   A second table ablates the reliable control plane: install
   completeness (fraction of planned peers that actually host the query)
   under 20% uniform message loss, with reconciliation disabled so only
   install-time retries can help — the paper's fire-and-forget install
   leaves subtrees dark, the retry/backoff plane does not. The
   "abandoned" column surfaces how many control messages exhausted their
   retry budget along the way. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Window = Mortar_core.Window

let seeds = [ 73; 74; 75 ]

let partition_run ~seed ~hosts =
  let h = Harness.create ~seed ~hosts ~transits:4 ~stubs:8 ~bf:8 () in
  let d = Harness.deployment h in
  let topo = D.topology d
  and root = 0 in
  (* Partition a stub that does not contain the root. *)
  let cut_stub = (Mortar_net.Topology.stub_of topo root + 1) mod 8 in
  let cut_size = List.length (D.stub_hosts d cut_stub) in
  let crash_stub = (cut_stub + 1) mod 8 in
  D.schedule_faults d
    [
      D.Partition_stub { stub = cut_stub; from = 25.0; until = 45.0 };
      D.Correlated_crash { stub = crash_stub; fraction = 0.5; at = 60.0; recover_at = 70.0 };
    ];
  Harness.run_until h 95.0;
  let mean t0 t1 = Harness.mean_completeness h t0 t1 ~denominator:hosts in
  (mean, float_of_int (hosts - cut_size) /. float_of_int hosts, Harness.overcounted_windows h)

let partition_phase ~quick =
  let hosts = if quick then 120 else 480 in
  let runs = List.map (fun seed -> partition_run ~seed ~hosts) seeds in
  let pooled t0 t1 =
    Mortar_util.Stats.mean (Array.of_list (List.map (fun (m, _, _) -> m t0 t1) runs))
  in
  let reachable =
    Mortar_util.Stats.mean (Array.of_list (List.map (fun (_, r, _) -> r) runs))
  in
  Printf.printf "pooled over seeds {%s} (mean of per-seed means):\n"
    (String.concat "," (List.map string_of_int seeds));
  Common.table
    ~columns:[ "phase"; "interval"; "completeness"; "expected" ]
    (fun () ->
      [
        [ "steady"; "[15,25)"; Common.cell_pct (pooled 15.0 25.0); Common.cell_pct 1.0 ];
        [
          "stub partitioned";
          "[30,45)";
          Common.cell_pct (pooled 30.0 45.0);
          Common.cell_pct reachable;
        ];
        [ "healed"; "[50,60)"; Common.cell_pct (pooled 50.0 60.0); Common.cell_pct 1.0 ];
        [ "correlated crash"; "[62,70)"; Common.cell_pct (pooled 62.0 70.0); "<100.0%" ];
        [ "recovered"; "[80,95)"; Common.cell_pct (pooled 80.0 95.0); Common.cell_pct 1.0 ];
      ]);
  List.length (List.concat_map (fun (_, _, over) -> over) runs)

(* Fraction of planned peers hosting the query after an install multicast
   under uniform loss, with reconciliation effectively disabled (huge
   heartbeat period) so retries are the only repair mechanism. Also
   returns how many control messages ran out their retry budget. *)
let install_completeness ~hosts ~loss ~retries =
  let rng = Mortar_util.Rng.create 911 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:8 ~hosts () in
  let config = { Peer.default_config with Peer.hb_period = 1e6; ctl_retries = retries } in
  let d = D.create_sharded ~seed:17 ~config ~loss topo in
  D.converge_coordinates d ();
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:8 ~d:4 ~root:0 ~nodes () in
  let meta =
    Query.make_meta ~name:"q" ~source:"s" ~op:Mortar_core.Op.Sum
      ~window:(Window.tumbling 1.0) ~root:0 ~total_nodes:hosts ()
  in
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset);
  D.run_until d 40.0;
  let installed = ref 0
  and abandoned = ref 0 in
  for i = 0 to hosts - 1 do
    if Peer.has_query (D.peer d i) "q" then incr installed;
    abandoned := !abandoned + Peer.count (D.peer d i) Peer.Ctl_abandoned
  done;
  (float_of_int !installed /. float_of_int hosts, !abandoned)

let retry_phase ~quick =
  let hosts = if quick then 96 else 240 in
  let ff, ff_abandoned = install_completeness ~hosts ~loss:0.2 ~retries:0 in
  let rb, rb_abandoned = install_completeness ~hosts ~loss:0.2 ~retries:4 in
  Printf.printf "\ninstall completeness under 20%% loss, reconciliation off:\n";
  Common.table
    ~columns:[ "control plane"; "installed"; "abandoned" ]
    (fun () ->
      [
        [ "fire-and-forget (paper)"; Common.cell_pct ff; string_of_int ff_abandoned ];
        [ "retry/backoff (4 retries)"; Common.cell_pct rb; string_of_int rb_abandoned ];
      ]);
  Printf.printf "retry budget exhausted: fire-and-forget=%d retry/backoff=%d\n" ff_abandoned
    rb_abandoned

let run ~quick =
  let over = partition_phase ~quick in
  retry_phase ~quick;
  (* The CI gate greps this exact line. *)
  if over = 0 then print_endline "churn gate: ok"
  else Printf.printf "churn gate: FAIL (%d reported windows above the host count)\n" over

let experiment =
  {
    Common.id = "churn";
    title = "Scripted partition + correlated churn (fault scheduler)";
    paper_claim =
      "completeness dips by the partitioned fraction while a stub is cut and recovers \
       after heal; reliable control install survives 20% loss where fire-and-forget \
       leaves subtrees dark";
    run;
  }

let register () = Common.register experiment
