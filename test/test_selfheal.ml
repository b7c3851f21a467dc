(* Self-healing data plane: property tests.

   Each property drives a full seeded deployment through the composed
   chaos schedule with repair enabled and checks a soak invariant:

   - convergence: no live installed host stays union-disconnected from
     the root longer than the MTTR bound, and the deployment ends fully
     connected and fully installed;
   - duplicate safety: summing any true window's provenance across all
     reported results never exceeds the host count — repair re-parenting
     and warm-up replay must not double-count under time-division
     indexing — and no single reported window counts more hosts than
     exist (a rejoining host on a shifted slot grid is counted twice in
     one window without over-summing any true window);
   - determinism: the repair decision stream (orphaned / reparent trace
     events) is byte-identical across same-seed reruns.

   The simulations are deterministic, so these are exhaustive checks
   over a sampled seed space, not statistical smoke tests. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Harness = Mortar_experiments.Harness
module Sibling = Mortar_overlay.Sibling
module Obs = Mortar_obs.Obs
module Query = Mortar_core.Query
module Window = Mortar_core.Window
module Value = Mortar_core.Value
module Op = Mortar_core.Op
module Rng = Mortar_util.Rng

let chaos_from = 10.0
let chaos_until = 45.0
let run_end = 75.0
let mttr_bound = 30.0

(* Small but structured: 60 hosts, two trees (so the union graph can
   actually disconnect), chaos for 35 s, then a settle tail. *)
let run_scenario ~seed =
  let hosts = 60 in
  let config =
    { Peer.default_config with Peer.self_heal = true; warmup_buffer = 16; ctl_retries = 2 }
  in
  let h =
    Harness.create ~seed ~hosts ~transits:3 ~stubs:6 ~bf:6 ~degree:2
      ~track_provenance:true ~config ()
  in
  let d = Harness.deployment h in
  let schedule =
    D.composed_churn d
      ~rng:(Mortar_util.Rng.create (seed lxor 0x2b))
      ~from:chaos_from ~until:chaos_until ~protect:[ 0 ] ~churn_period:10.0 ~churn_kills:1
      ~down_min:6.0 ~down_max:12.0 ~burst_period:60.0 ~burst_len:10.0 ~kill_period:15.0
      ~kill_fraction:0.7 ~kill_len:12.0 ()
  in
  D.schedule_faults d schedule;
  (h, hosts)

(* Advance in [step]-second increments, reporting the unreachable set at
   each sample to [on_sample]. *)
let drive h ~on_sample =
  let t = ref chaos_from in
  while !t <= run_end +. 0.001 do
    Harness.run_until h !t;
    on_sample !t (Harness.repaired_unreachable h);
    t := !t +. 2.5
  done

let prop_converges =
  QCheck.Test.make ~name:"repair converges within the MTTR bound" ~count:6
    QCheck.(int_range 1 1000)
    (fun seed ->
      let h, _hosts = run_scenario ~seed in
      let since = Hashtbl.create 16 in
      let worst = ref 0.0 in
      drive h ~on_sample:(fun now unreachable ->
          let cur = Hashtbl.create 16 in
          List.iter (fun v -> Hashtbl.replace cur v ()) unreachable;
          Hashtbl.iter
            (fun v t0 ->
              if Hashtbl.mem cur v then begin
                if now -. t0 > !worst then worst := now -. t0
              end)
            since;
          List.iter
            (fun v -> if not (Hashtbl.mem since v) then Hashtbl.replace since v now)
            unreachable;
          Hashtbl.iter (fun v _ -> if not (Hashtbl.mem cur v) then Hashtbl.remove since v)
            (Hashtbl.copy since));
      if !worst > mttr_bound then
        QCheck.Test.fail_reportf "host blackholed for %.1fs (bound %.1fs)" !worst
          mttr_bound;
      if Harness.repaired_unreachable h <> [] then
        QCheck.Test.fail_reportf "unreachable hosts at end of settle";
      if Harness.uninstalled_live_hosts h <> [] then
        QCheck.Test.fail_reportf "live hosts still uninstalled at end of settle";
      true)

let prop_no_overcount =
  QCheck.Test.make ~name:"repaired runs never over-count a window" ~count:6
    QCheck.(int_range 1001 2000)
    (fun seed ->
      let h, hosts = run_scenario ~seed in
      Harness.run_until h run_end;
      let total = Hashtbl.create 128 in
      List.iter
        (fun (_, prov) ->
          List.iter
            (fun (slot, n) ->
              Hashtbl.replace total slot
                (n + Option.value (Hashtbl.find_opt total slot) ~default:0))
            prov)
        (Harness.provenance_results h);
      Hashtbl.iter
        (fun slot n ->
          if n > hosts then
            QCheck.Test.fail_reportf "true slot %d counted %d tuples from %d hosts" slot n
              hosts)
        total;
      (match Harness.overcounted_windows h with
      | [] -> ()
      | slots ->
        QCheck.Test.fail_reportf "reported windows %s counted more than %d hosts"
          (String.concat ", " (List.map string_of_int slots))
          hosts);
      true)

let contains_sub s sub =
  let n = String.length s
  and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The repair decision stream, as the structured trace records it. *)
let repair_trace ~seed =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Obs.Reg.clear Obs.default;
  Fun.protect
    ~finally:(fun () ->
      Obs.Reg.clear Obs.default;
      Obs.enabled := was)
    (fun () ->
      let h, _ = run_scenario ~seed in
      Harness.run_until h run_end;
      List.filter
        (fun line -> contains_sub line "reparent" || contains_sub line "orphaned")
        (Obs.Reg.trace_lines Obs.default))

let prop_deterministic =
  QCheck.Test.make ~name:"repair decisions are byte-identical across same-seed reruns"
    ~count:4
    QCheck.(int_range 2001 3000)
    (fun seed ->
      let a = repair_trace ~seed
      and b = repair_trace ~seed in
      if a <> b then
        QCheck.Test.fail_reportf "repair traces diverged (%d vs %d lines)" (List.length a)
          (List.length b);
      true)

(* A pinned seed that is known to orphan hosts, so the determinism
   property above cannot pass vacuously for every sampled seed. *)
let test_deterministic_nonvacuous () =
  let a = repair_trace ~seed:7 in
  Alcotest.(check bool) "pinned seed produces repair decisions" true (a <> []);
  Alcotest.(check (list string)) "pinned seed replays byte-identically" a
    (repair_trace ~seed:7)

(* Donor ordering is the acyclicity argument: grandparent first (two
   levels up), then only strictly smaller sibling ids, canonically
   sorted. *)
let test_repair_donors () =
  Alcotest.(check (list (pair int string)))
    "grand first, then smaller siblings sorted"
    [ (2, "grand"); (1, "sib"); (3, "sib") ]
    (List.map
       (fun (n, k) -> (n, match k with `Grand -> "grand" | `Sib -> "sib"))
       (Sibling.repair_donors ~self:5 ~grand:(Some 2) ~siblings:[ 7; 3; 1 ]));
  Alcotest.(check (list (pair int string)))
    "no grandparent, larger siblings filtered" []
    (List.map
       (fun (n, k) -> (n, match k with `Grand -> "grand" | `Sib -> "sib"))
       (Sibling.repair_donors ~self:2 ~grand:None ~siblings:[ 5; 9 ]))

(* Restart regression: 240 hosts over 4 transits and 8 stubs, two bf-16
   trees, self-healing with reliable control and warm-up buffering, under
   composed churn (one crash every 2 s, bursty stub loss, a quarter of a
   stub killed every 8 s). A restarted host asks the root for its view;
   the reply must carry the query's age, or the host's slot grid is out
   of phase with everyone else's and one of its readings lands in two
   reported windows. Seed 37 reported four windows above 240 (up to 258)
   while the reply carried age 0. *)
let test_restart_rejoins_slot_grid () =
  let seed = 37 and hosts = 240 in
  let rng = Rng.create ((seed * 7919) + 3) in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:8 ~hosts () in
  let config =
    { Peer.default_config with Peer.self_heal = true; ctl_retries = 2; warmup_buffer = 32 }
  in
  let d = D.create_sharded ~seed ~config topo in
  D.converge_coordinates d ();
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ~bf:16 ~d:2 ~root:0 ~nodes () in
  let meta =
    Query.make_meta ~name:"churn" ~source:"cpu" ~op:Op.Sum ~window:(Window.tumbling 1.0)
      ~root:0 ~degree:2 ~total_nodes:hosts ()
  in
  for h = 0 to hosts - 1 do
    D.sensor d ~node:h ~stream:"cpu" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let results = ref 0 and over = ref [] in
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      incr results;
      if r.count > hosts then over := (r.slot, r.count) :: !over);
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset);
  D.schedule_faults d
    (D.composed_churn d ~rng:(Rng.split rng) ~from:8.0 ~until:42.0 ~protect:[ 0 ]
       ~churn_period:2.0 ~churn_kills:1 ~down_min:2.0 ~down_max:6.0 ~burst_period:5.0
       ~burst_len:2.5 ~kill_period:8.0 ~kill_fraction:0.25 ~kill_len:3.0 ());
  D.run_until d 48.0;
  Alcotest.(check bool) "root reported windows" true (!results > 40);
  Alcotest.(check (list (pair int int))) "no reported window above the host count" []
    (List.rev !over)

let tests =
  [
    Alcotest.test_case "repair donor ordering" `Quick test_repair_donors;
    Alcotest.test_case "restart rejoins the query's slot grid" `Quick
      test_restart_rejoins_slot_grid;
    QCheck_alcotest.to_alcotest prop_converges;
    QCheck_alcotest.to_alcotest prop_no_overcount;
    QCheck_alcotest.to_alcotest prop_deterministic;
    Alcotest.test_case "pinned-seed repair trace (non-vacuous)" `Quick
      test_deterministic_nonvacuous;
  ]
