(* lib/plan: canonical sharing, cost-based placement, and the plan
   registry's refcount lifecycle.

   One small converged deployment fixture is shared (lazily) by the
   read-only placement tests; the lifecycle tests that crash or sweep
   state build their own. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Op = Mortar_core.Op
module Topology = Mortar_net.Topology
module Tree = Mortar_overlay.Tree
module Treeset = Mortar_overlay.Treeset
module Spec = Mortar_plan.Spec
module Place = Mortar_plan.Place
module Registry = Mortar_plan.Registry
module Rng = Mortar_util.Rng

let fixture =
  lazy
    (let rng = Rng.create 31 in
     let topo = Topology.transit_stub rng ~transits:3 ~stubs:6 ~hosts:120 () in
     let d = D.create_sharded ~seed:31 topo in
     D.converge_coordinates d ();
     (topo, d))

let mk ?(name = "q") ?(source = "cpu") ?(op = Op.Sum) ?(window = 1.0) ~publishers
    ~subscriber () =
  Spec.make ~name ~source ~op ~window ~publishers ~subscriber

let fresh_ctx ?(seed = 7) () =
  let topo, d = Lazy.force fixture in
  Place.ctx ~topo ~coords:(D.coordinates d) ~bf:4 ~degree:2 ~seed ()

(* ------------------------------------------------------------------ *)
(* Canonicalization.                                                   *)

let test_canonical_grouping () =
  let pubs = [| 3; 1; 7; 5 |] in
  let a = mk ~name:"a" ~publishers:pubs ~subscriber:1 () in
  let b = mk ~name:"b" ~publishers:[| 5; 7; 1; 3; 3 |] ~subscriber:7 () in
  Alcotest.(check string)
    "same data, same key" (Spec.canonical_key a) (Spec.canonical_key b);
  Alcotest.(check string)
    "same data, same physical name" (Spec.physical_name a) (Spec.physical_name b);
  let w = mk ~name:"c" ~publishers:pubs ~subscriber:1 ~window:2.0 () in
  let o = mk ~name:"d" ~publishers:pubs ~subscriber:1 ~op:Op.Max () in
  let p = mk ~name:"e" ~publishers:[| 3; 1; 7 |] ~subscriber:1 () in
  List.iter
    (fun (what, s) ->
      Alcotest.(check bool)
        (what ^ " changes the key") false
        (Spec.canonical_key a = Spec.canonical_key s))
    [ ("window", w); ("op", o); ("publisher set", p) ];
  let groups = Place.group_specs [ a; b; w; o; p ] in
  Alcotest.(check int) "five specs, four classes" 4 (List.length groups);
  let shared =
    List.find (fun (g : Place.group) -> g.phys = Spec.physical_name a) groups
  in
  Alcotest.(check int) "shared class serves two specs" 2 (List.length shared.specs);
  Alcotest.(check (list int)) "both subscribers collected" [ 1; 7 ]
    (Place.subscribers shared)

(* ------------------------------------------------------------------ *)
(* QCheck: placement structure.                                        *)

(* Random publisher subsets of the fixture population, with subscribers
   drawn inside and outside the set. *)
let spec_gen =
  QCheck.make
    ~print:(fun (pubs, sub) ->
      Printf.sprintf "pubs=[%s] sub=%d"
        (String.concat ";" (List.map string_of_int (Array.to_list pubs)))
        sub)
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* raw = array_size (return n) (int_range 0 119) in
      let* inside = bool in
      let pubs = Array.of_list (List.sort_uniq compare (Array.to_list raw)) in
      let* i = int_range 0 (Array.length pubs - 1) in
      let* outside = int_range 0 119 in
      return (pubs, if inside then pubs.(i) else outside))

let check_tree_shape (g : Place.group) (tr : Tree.t) ~root =
  let want = Array.to_list g.publishers in
  let got = List.sort compare (Array.to_list (Tree.nodes tr)) in
  if got <> want then QCheck.Test.fail_report "tree does not span the publisher set";
  if Tree.root tr <> root then QCheck.Test.fail_report "tree root mismatch";
  (* Acyclic + connected: every member's parent chain reaches the root
     without revisiting a node. *)
  Array.iter
    (fun n ->
      let path = Tree.path_to_root tr n in
      if List.length (List.sort_uniq compare path) <> List.length path then
        QCheck.Test.fail_report "parent chain revisits a node";
      match List.rev path with
      | r :: _ when r = root -> ()
      | _ -> QCheck.Test.fail_report "parent chain does not end at the root")
    (Tree.nodes tr)

let prop_placement_covers (pubs, sub) =
  let ctx = fresh_ctx () in
  let spec = mk ~publishers:pubs ~subscriber:sub () in
  match Place.plan ctx ~usage:[] [ spec ] with
  | [ p ] ->
    if not (Array.mem p.Place.root spec.Spec.publishers) then
      QCheck.Test.fail_report "root is not a publisher";
    Array.iter
      (fun tr -> check_tree_shape p.Place.group tr ~root:p.Place.root)
      (Treeset.trees p.Place.treeset);
    (* Every subscriber is reachable: it is the root itself or on the
       fan-out list. *)
    let subs = Place.subscribers p.Place.group in
    List.for_all (fun s -> s = p.Place.root || List.mem s subs) [ sub ]
  | _ -> QCheck.Test.fail_report "expected exactly one placement"

let test_placement_covers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"placed trees span publishers, acyclic" spec_gen
       prop_placement_covers)

(* ------------------------------------------------------------------ *)
(* Determinism: planning is a pure function of (inputs, seed).         *)

let workload () =
  let stub_pubs lo n = Array.init n (fun i -> lo + i) in
  [
    mk ~name:"w0" ~publishers:(stub_pubs 0 20) ~subscriber:3 ();
    mk ~name:"w1" ~publishers:(stub_pubs 0 20) ~subscriber:11 ();
    mk ~name:"w2" ~source:"mem" ~publishers:(stub_pubs 0 20) ~subscriber:5 ();
    mk ~name:"w3" ~publishers:(stub_pubs 40 25) ~subscriber:41 ();
    mk ~name:"w4" ~publishers:(stub_pubs 80 30) ~subscriber:82 ();
    mk ~name:"w5" ~publishers:(stub_pubs 80 30) ~subscriber:99 ();
  ]

let fingerprint (plan : Place.placement list) =
  List.map
    (fun (p : Place.placement) ->
      (p.Place.group.Place.phys, p.Place.root, Treeset.union_edges p.Place.treeset))
    plan

let total_cost plan = List.fold_left (fun acc p -> acc +. p.Place.cost) 0.0 plan

let test_planning_deterministic () =
  let run () = Place.plan (fresh_ctx ()) ~usage:[] (workload ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical placements across reruns" true
    (fingerprint a = fingerprint b);
  Alcotest.(check int) "same cost to the bit" 0 (Float.compare (total_cost a) (total_cost b));
  (* A different seed really does move something (the tree draws). *)
  let c = Place.plan (fresh_ctx ~seed:8 ()) ~usage:[] (workload ()) in
  Alcotest.(check bool) "seed feeds the tree construction" true
    (fingerprint a <> fingerprint c || Float.compare (total_cost a) (total_cost c) <> 0)

let test_budget_pressure () =
  let ctx_tight =
    let topo, d = Lazy.force fixture in
    Place.ctx ~topo ~coords:(D.coordinates d)
      ~model:{ Mortar_plan.Cost.op_budget = 1 }
      ~bf:4 ~degree:2 ~seed:7 ()
  in
  let plan = Place.plan ctx_tight ~usage:[] (workload ()) in
  (* Placement still succeeds for every class under the tight budget
     (soft fallback). *)
  Alcotest.(check int) "every class placed" 4 (List.length plan)

(* ------------------------------------------------------------------ *)
(* Local search cannot move a placement: [Place.plan] is the greedy
   visit alone. The oracle is the planner with local-search passes:
   after the greedy visit, each pass re-sites every class from scratch
   with [place_group] against everyone else's load and keeps a strictly
   cheaper feasible pick, where a pick counts as feasible when every
   interior host still has a free operator slot. Whatever the number of
   passes, the oracle must end where the greedy visit did. *)

let oracle_plan ctx ~budget ~passes specs =
  let use = Hashtbl.create 64 in
  let slots h = Option.value (Hashtbl.find_opt use h) ~default:0 in
  let choose g =
    let p = Place.place_group ctx ~usage:use g in
    (p, List.for_all (fun h -> slots h < budget) (Mortar_plan.Cost.interior_load p.Place.treeset))
  in
  let placed =
    List.map
      (fun g ->
        let p, _ = choose g in
        Place.charge use p;
        ref p)
      (Place.group_specs specs)
  in
  for _pass = 1 to passes do
    List.iter
      (fun pr ->
        Place.discharge use !pr;
        let p', ok = choose !pr.Place.group in
        if ok && p'.Place.cost +. 1e-9 < !pr.Place.cost then pr := p';
        Place.charge use !pr)
      placed
  done;
  List.map ( ! ) placed

(* A small topology with Vivaldi coordinates, and a handful of specs
   over overlapping publisher ranges so classes compete for slots. *)
let equivalence_gen =
  QCheck.Gen.(
    let* topo_seed = int_bound 1000 in
    let* hosts = int_range 24 60 in
    let* plan_seed = int_bound 1000 in
    let* budget = oneofl [ 1; 2; 4 ] in
    let* passes = int_range 0 3 in
    let spec i =
      let* lo = int_bound (hosts - 6) in
      let* len = int_range 2 (min 30 (hosts - lo)) in
      let* sub = int_bound (hosts - 1) in
      let* source = oneofl [ "cpu"; "mem" ] in
      let* op = oneofl [ Op.Sum; Op.Max ] in
      return
        (mk ~name:(Printf.sprintf "e%d" i) ~source ~op
           ~publishers:(Array.init len (fun j -> lo + j))
           ~subscriber:sub ())
    in
    let* n = int_range 1 6 in
    let* specs = flatten_l (List.init n spec) in
    return (topo_seed, hosts, plan_seed, budget, passes, specs))

let bits f = Int64.bits_of_float f

let prop_score_once_equivalent (topo_seed, hosts, plan_seed, budget, passes, specs) =
  let topo =
    Topology.transit_stub (Rng.create topo_seed) ~transits:2 ~stubs:4 ~hosts ()
  in
  let viv = Mortar_coords.Vivaldi.create topo ~rng:(Rng.create (topo_seed + 1)) () in
  Mortar_coords.Vivaldi.converge viv ~rounds:8 ~samples:6;
  let coords = Mortar_coords.Vivaldi.coordinates viv in
  let ctx () =
    Place.ctx ~topo ~coords
      ~model:{ Mortar_plan.Cost.op_budget = budget }
      ~bf:4 ~degree:2 ~seed:plan_seed ()
  in
  let got = Place.plan (ctx ()) ~usage:[] specs in
  let want = oracle_plan (ctx ()) ~budget ~passes specs in
  let same (a : Place.placement) (b : Place.placement) =
    a.Place.group.Place.phys = b.Place.group.Place.phys
    && a.Place.root = b.Place.root
    && Treeset.union_edges a.Place.treeset = Treeset.union_edges b.Place.treeset
    && Int64.equal (bits a.Place.cost) (bits b.Place.cost)
  in
  if List.length got <> List.length want || not (List.for_all2 same got want) then
    QCheck.Test.fail_report "placements differ from the local-search oracle";
  true

let test_score_once_equivalent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"score-once plan = re-scoring oracle"
       (QCheck.make
          ~print:(fun (ts, hosts, ps, budget, passes, specs) ->
            Printf.sprintf "topo=%d hosts=%d seed=%d budget=%d passes=%d specs=%d" ts hosts ps
              budget passes (List.length specs))
          equivalence_gen)
       prop_score_once_equivalent)

(* ------------------------------------------------------------------ *)
(* Registry lifecycle: install -> share -> retire -> retire reclaims
   everything (the plan/tree refcount leak regression). A logical query
   is retired when its subscriber dies; subscribers outside the
   publisher set are never the root, so retiring them touches neither
   the placement nor the publishers.                                   *)

let logical_count reg = List.length (Registry.mapping reg)

let apply d = function
  | Registry.Install { phys; root; meta; treeset; subscribers }
  | Registry.Replan { phys; root; meta; treeset; subscribers; _ } ->
    Peer.install_query (D.peer d root) meta treeset;
    Peer.set_result_forwards (D.peer d root) ~query:phys subscribers
  | Registry.Update_fanout { phys; root; subscribers } ->
    Peer.set_result_forwards (D.peer d root) ~query:phys subscribers
  | Registry.Remove { phys; root } ->
    Peer.set_result_forwards (D.peer d root) ~query:phys [];
    Peer.remove_query (D.peer d root) ~name:phys

let test_refcount_lifecycle () =
  let hosts = 48 in
  let rng = Rng.create 77 in
  let topo = Topology.transit_stub rng ~transits:3 ~stubs:6 ~hosts () in
  let d = D.create_sharded ~seed:77 topo in
  D.converge_coordinates d ();
  let ctx = Place.ctx ~topo ~coords:(D.coordinates d) ~bf:4 ~degree:2 ~seed:5 () in
  let reg = Registry.create ~ctx () in
  let pubs = Array.init 24 (fun i -> i) in
  let qa = mk ~name:"qa" ~publishers:pubs ~subscriber:30 () in
  let qb = mk ~name:"qb" ~publishers:pubs ~subscriber:41 () in
  for n = 0 to hosts - 1 do
    D.sensor d ~node:n ~stream:"cpu" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  (* Install the first logical query; the second joins the same class. *)
  let acts_a = Registry.add_batch reg [ qa ] in
  Alcotest.(check int) "fresh class installs" 1 (List.length acts_a);
  let phys, root =
    match acts_a with
    | [ Registry.Install { phys; root; _ } ] -> (phys, root)
    | _ -> Alcotest.fail "expected a single Install action"
  in
  D.at d 1.0 (fun () -> List.iter (apply d) acts_a);
  let acts_b = Registry.add_batch reg [ qb ] in
  (match acts_b with
  | [ Registry.Update_fanout { phys = p; subscribers; _ } ] ->
    Alcotest.(check string) "join refreshes the same physical query" phys p;
    Alcotest.(check (list int)) "fan-out covers both subscribers" [ 30; 41 ] subscribers
  | _ -> Alcotest.fail "expected a fan-out refresh, not a new install");
  D.at d 2.0 (fun () -> List.iter (apply d) acts_b);
  D.run_until d 8.0;
  Alcotest.(check int) "two logical, one physical" 2 (logical_count reg);
  Alcotest.(check int) "one physical class" 1 (Registry.physical_count reg);
  Alcotest.(check bool) "installed at the root" true (Peer.has_query (D.peer d root) phys);
  Alcotest.(check bool) "plan retained while live" true
    (Peer.plan_cached (D.peer d root) ~name:phys);
  (* First retirement: still shared, nothing physical happens. *)
  (match Registry.handle_loss reg ~dead:[ 30 ] with
  | [ Registry.Update_fanout { subscribers; _ } ] ->
    Alcotest.(check (list int)) "fan-out shrinks" [ 41 ] subscribers
  | acts -> List.iter (apply d) acts; Alcotest.fail "expected only a fan-out refresh");
  Peer.set_result_forwards (D.peer d root) ~query:phys [ 41 ];
  D.run_until d 10.0;
  Alcotest.(check bool) "still installed while shared" true
    (Peer.has_query (D.peer d root) phys);
  (* Last retirement: the physical query goes, and after the idle-partner
     sweep horizon every peer's state is reclaimed. *)
  (match Registry.handle_loss reg ~dead:[ 41 ] with
  | [ Registry.Remove { phys = p; root = r } ] ->
    Alcotest.(check string) "removes the physical query" phys p;
    Peer.set_result_forwards (D.peer d r) ~query:phys [];
    Peer.remove_query (D.peer d r) ~name:phys
  | _ -> Alcotest.fail "expected the physical removal");
  Alcotest.(check int) "registry empty" 0 (logical_count reg);
  (* Horizon: 4 * hb_timeout_factor * hb_period = 24 s of idle time. *)
  D.run_until d 40.0;
  for n = 0 to hosts - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "host %d dropped the query" n)
      false
      (Peer.has_query (D.peer d n) phys)
  done;
  Alcotest.(check bool) "tombstone only at the injector" false
    (Peer.plan_cached (D.peer d root) ~name:phys);
  let partners = ref 0 in
  for n = 0 to hosts - 1 do
    partners := !partners + Peer.partner_count (D.peer d n)
  done;
  Alcotest.(check int) "heartbeat-partner tables fully swept" 0 !partners

(* Retire the last sharer, then re-admit the same sharing class: the
   fresh install's seqno must supersede the removal tombstones the
   peer-level removal multicast left behind at every member. *)
let test_readmission_after_remove () =
  let hosts = 48 in
  let rng = Rng.create 78 in
  let topo = Topology.transit_stub rng ~transits:3 ~stubs:6 ~hosts () in
  let d = D.create_sharded ~seed:78 topo in
  D.converge_coordinates d ();
  let ctx = Place.ctx ~topo ~coords:(D.coordinates d) ~bf:4 ~degree:2 ~seed:5 () in
  let reg = Registry.create ~ctx () in
  let pubs = Array.init 24 (fun i -> i) in
  for n = 0 to hosts - 1 do
    D.sensor d ~node:n ~stream:"cpu" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  let qa = mk ~name:"qa" ~publishers:pubs ~subscriber:30 () in
  let acts = Registry.add_batch reg [ qa ] in
  let phys, root =
    match acts with
    | [ Registry.Install { phys; root; _ } ] -> (phys, root)
    | _ -> Alcotest.fail "expected a single Install action"
  in
  D.at d 1.0 (fun () -> List.iter (apply d) acts);
  D.run_until d 6.0;
  Alcotest.(check bool) "installed at the root" true (Peer.has_query (D.peer d root) phys);
  D.at d 6.5 (fun () -> List.iter (apply d) (Registry.handle_loss reg ~dead:[ 30 ]));
  D.run_until d 10.0;
  Alcotest.(check bool) "removed at the root" false (Peer.has_query (D.peer d root) phys);
  (* Re-admit the class under a new logical name. The removal multicast
     travelled at seqno 2 (install was 1), so the re-install must carry
     a strictly larger seqno or every member drops it as stale. *)
  let qb = mk ~name:"qb" ~publishers:pubs ~subscriber:41 () in
  let acts = Registry.add_batch reg [ qb ] in
  let root2 =
    match acts with
    | [ Registry.Install { phys = p; root; meta; _ } ] ->
      Alcotest.(check string) "same physical class on re-admission" phys p;
      Alcotest.(check bool) "install seqno supersedes the removal tombstone" true
        (meta.Query.seqno > 2);
      root
    | _ -> Alcotest.fail "expected a fresh Install action"
  in
  let delivered = ref 0 in
  Peer.on_result (D.peer d root2) (fun (r : Peer.result) ->
      if r.query = phys then incr delivered);
  D.at d 10.5 (fun () -> List.iter (apply d) acts);
  D.run_until d 20.0;
  Alcotest.(check bool) "re-admitted query installed at the root" true
    (Peer.has_query (D.peer d root2) phys);
  Alcotest.(check bool) "re-admitted query delivers results" true (!delivered > 0)

(* Two specs with the same logical name inside one batch must be
   rejected up-front, not half-admitted. *)
let test_duplicate_in_batch () =
  let reg = Registry.create ~ctx:(fresh_ctx ()) () in
  let pubs = Array.init 8 (fun i -> i) in
  let a = mk ~name:"dup" ~publishers:pubs ~subscriber:1 () in
  let b = mk ~name:"dup" ~publishers:pubs ~subscriber:3 () in
  Alcotest.check_raises "duplicate within one batch rejected"
    (Invalid_argument "Registry.add_batch: duplicate logical query dup") (fun () ->
      ignore (Registry.add_batch reg [ a; b ]));
  Alcotest.(check int) "nothing admitted" 0 (logical_count reg)

(* handle_loss must never leave a dead host on a fan-out list: logical
   queries whose subscriber died are retired, surviving sharers keep the
   class alive, and a class with no live subscriber is retired outright
   even when its publishers survive. *)
let test_loss_drops_dead_subscribers () =
  let pubs = Array.init 16 (fun i -> i) in
  let reg = Registry.create ~ctx:(fresh_ctx ()) () in
  (* One subscriber inside the publisher set, one outside. *)
  let a = mk ~name:"la" ~publishers:pubs ~subscriber:3 () in
  let b = mk ~name:"lb" ~publishers:pubs ~subscriber:40 () in
  ignore (Registry.add_batch reg [ a; b ]);
  (* Kill the outside subscriber: publishers untouched, but the fan-out
     must drop host 40 and its logical query must be retired. *)
  (match Registry.handle_loss reg ~dead:[ 40 ] with
  | [ Registry.Update_fanout { subscribers; _ } ] ->
    Alcotest.(check (list int)) "dead subscriber dropped from fan-out" [ 3 ] subscribers
  | _ -> Alcotest.fail "expected only a fan-out refresh");
  Alcotest.(check int) "dead subscriber's query retired" 1 (logical_count reg);
  (* Kill the last consumer (a publisher too): retire the class rather
     than re-plan it for nobody. *)
  (match Registry.handle_loss reg ~dead:[ 3 ] with
  | [ Registry.Remove _ ] -> ()
  | _ -> Alcotest.fail "expected the class retired once no consumer is left");
  Alcotest.(check int) "registry empty" 0 (logical_count reg);
  Alcotest.(check int) "no physical classes left" 0 (Registry.physical_count reg);
  (* Publisher loss and a dead subscriber together: the survivors are
     re-planned and the dead host is absent from the Replan fan-out. *)
  let reg2 = Registry.create ~ctx:(fresh_ctx ()) () in
  let c = mk ~name:"lc" ~publishers:pubs ~subscriber:5 () in
  let e = mk ~name:"le" ~publishers:pubs ~subscriber:7 () in
  ignore (Registry.add_batch reg2 [ c; e ]);
  (match Registry.handle_loss reg2 ~dead:[ 5 ] with
  | [ Registry.Replan { subscribers; _ } ] ->
    Alcotest.(check (list int)) "replan fan-out excludes the dead host" [ 7 ] subscribers
  | _ -> Alcotest.fail "expected a re-plan of the surviving class");
  Alcotest.(check int) "dead subscriber's query retired on re-plan" 1
    (logical_count reg2)

(* ------------------------------------------------------------------ *)
(* Shared sub-aggregates never overcount (provenance), and the sharded
   backend reproduces the single-domain result stream byte for byte.   *)

type delivery = { dq : string; db : int; dc : int }

let run_shared_workload ~domains () =
  let hosts = 60 in
  let rng = Rng.create 909 in
  let topo = Topology.transit_stub rng ~transits:3 ~stubs:6 ~hosts () in
  let d = D.create_sharded ~seed:909 ~domains topo in
  D.converge_coordinates d ();
  let pubs_a = Array.init 20 (fun i -> i) in
  let pubs_b = Array.init 18 (fun i -> 30 + i) in
  let specs =
    [
      mk ~name:"s0" ~publishers:pubs_a ~subscriber:4 ();
      mk ~name:"s1" ~publishers:pubs_a ~subscriber:12 ();
      mk ~name:"s2" ~publishers:pubs_b ~subscriber:35 ();
    ]
  in
  let streams = Hashtbl.create 64 in
  List.iter
    (fun (s : Spec.t) ->
      Array.iter (fun h -> Hashtbl.replace streams (s.Spec.source, h) ()) s.Spec.publishers)
    specs;
  Hashtbl.fold (fun k () acc -> k :: acc) streams []
  |> List.sort compare
  |> List.iter (fun (stream, node) ->
         D.sensor d ~node ~stream ~period:1.0 ~truth_slide:1.0 (fun _ -> Value.Int 1));
  let ctx = Place.ctx ~topo ~coords:(D.coordinates d) ~bf:4 ~degree:2 ~seed:17 () in
  let reg = Registry.create ~ctx () in
  let actions = Registry.add_batch reg specs in
  D.at d 1.0 (fun () -> List.iter (apply d) actions);
  (* Per-root recording buffers: each is only ever touched by the domain
     running that root's shard. *)
  let roots =
    List.sort_uniq compare (List.map (fun (_, _, r) -> r) (Registry.mapping reg))
  in
  let buffers = List.map (fun r -> (r, ref [])) roots in
  let prov_buffers = List.map (fun r -> (r, ref [])) roots in
  List.iter
    (fun (r, buf) ->
      let prov = List.assoc r prov_buffers in
      Peer.on_result (D.peer d r) (fun (res : Peer.result) ->
          buf :=
            { dq = res.query; db = int_of_float (Float.round (D.now d -. res.age));
              dc = res.count }
            :: !buf;
          prov := res.prov :: !prov))
    buffers;
  D.run_until d 12.0;
  let stream =
    List.concat_map (fun (r, buf) -> List.rev_map (fun x -> (r, x)) !buf) buffers
    |> List.sort compare
  in
  let provs = List.concat_map (fun (_, p) -> List.rev !p) prov_buffers in
  (stream, provs, List.length (Registry.mapping reg), Registry.physical_count reg)

let test_provenance_no_overcount () =
  let _, provs, logical, physical = run_shared_workload ~domains:1 () in
  Alcotest.(check int) "three logical queries" 3 logical;
  Alcotest.(check int) "two physical classes" 2 physical;
  Alcotest.(check bool) "provenance flowed" true
    (List.exists (fun p -> p <> []) provs);
  (* Across every result of a physical root, each true window's summed
     provenance must not exceed the publisher population: sharing fans
     results out, it must never merge the same host tuple twice. *)
  let total = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (slot, n) ->
         Hashtbl.replace total slot
           (n + Option.value (Hashtbl.find_opt total slot) ~default:0)))
    provs;
  Hashtbl.iter
    (fun slot n ->
      if n > 38 then
        Alcotest.failf "true window %d overcounted: %d > 38 host tuples" slot n)
    total

let test_sharded_identical () =
  let a, _, _, _ = run_shared_workload ~domains:1 () in
  let b, _, _, _ = run_shared_workload ~domains:4 () in
  Alcotest.(check int) "result streams same length" (List.length a) (List.length b);
  Alcotest.(check bool) "results flowed" true (List.length a > 10);
  Alcotest.(check bool) "sharded run byte-identical to sequential" true (a = b)

let tests =
  [
    Alcotest.test_case "canonical grouping" `Quick test_canonical_grouping;
    test_placement_covers;
    Alcotest.test_case "planning deterministic" `Quick test_planning_deterministic;
    Alcotest.test_case "operator budget pressure" `Quick test_budget_pressure;
    Alcotest.test_case "refcount lifecycle reclaims state" `Quick test_refcount_lifecycle;
    Alcotest.test_case "re-admission supersedes removal" `Quick test_readmission_after_remove;
    Alcotest.test_case "duplicate names within a batch" `Quick test_duplicate_in_batch;
    Alcotest.test_case "loss retires dead subscribers" `Quick test_loss_drops_dead_subscribers;
    Alcotest.test_case "shared trees never overcount" `Quick test_provenance_no_overcount;
    Alcotest.test_case "shards 1 = shards 4" `Quick test_sharded_identical;
    test_score_once_equivalent;
  ]
