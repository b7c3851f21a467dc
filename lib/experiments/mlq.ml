(* Multi-query workload (beyond the paper's single-query figures): the
   planner gate.

   N concurrent administrative queries are drawn over a transit-stub
   population: each query aggregates one machine-metric stream over one
   stub's hosts (a Zipf-skewed draw, so popular (stub, stream) combos
   repeat — the paper's wide-scale setting where many administrators ask
   overlapping questions), with results delivered to a subscriber drawn
   from the publisher set.

   Two modes run the identical workload:

   - naive: today's Mortar — one private network-aware tree set per
     query, rooted at its subscriber;
   - shared: the lib/plan multi-query planner — queries with the same
     canonical (publishers, op, window) key share one physical tree set
     placed cost-based (latency-medoid candidate roots, per-node
     operator budget, local-search pass), and the root fans finished
     results out to each subscriber ({!Mortar_core.Msg.Result_fwd}).

   Figure: aggregate in-network bandwidth (all traffic classes) and
   delivered completeness versus query count, planned vs naive. A second
   phase kills one stub mid-run and compares the planner's churn-driven
   incremental re-plan (surviving roots reused) against a no-replan
   control on delivered completeness over the surviving publishers.

   CI greps the "mlq gate:" line: at the top query count the planner
   must beat naive on bandwidth without losing completeness, and no run
   may deliver a window counting more publishers than its query has. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Topology = Mortar_net.Topology
module Spec = Mortar_plan.Spec
module Place = Mortar_plan.Place
module Registry = Mortar_plan.Registry
module Rng = Mortar_util.Rng

type params = {
  hosts : int;
  transits : int;
  stubs : int;
  bf : int;
  degree : int;
  ladder : int list;
  streams : string list;
  install_from : float;
  install_span : float;
  steady_lo : float;
  steady_hi : float;
  run_end : float;
  (* churn / re-plan phase *)
  churn_q : int;
  pre_lo : float;
  pre_hi : float;
  kill_at : float;
  epoch : float;
  sustained : float;
  degr_lo : float;
  degr_hi : float;
  post_lo : float;
  post_hi : float;
  churn_end : float;
}

let params ~quick =
  if quick then
    {
      hosts = 400;
      transits = 4;
      stubs = 8;
      bf = 8;
      degree = 2;
      ladder = [ 12; 36 ];
      streams = [ "cpu"; "mem" ];
      install_from = 1.0;
      install_span = 1.0;
      steady_lo = 6.0;
      steady_hi = 10.0;
      run_end = 14.0;
      churn_q = 36;
      pre_lo = 5.0;
      pre_hi = 8.0;
      kill_at = 9.0;
      epoch = 1.0;
      sustained = 3.0;
      degr_lo = 10.0;
      degr_hi = 12.0;
      post_lo = 16.0;
      post_hi = 20.0;
      churn_end = 24.0;
    }
  else
    {
      hosts = 10_000;
      transits = 8;
      stubs = 34;
      bf = 16;
      degree = 2;
      ladder = [ 50; 100; 250; 500 ];
      streams = [ "cpu"; "mem"; "net" ];
      install_from = 1.0;
      install_span = 2.0;
      steady_lo = 8.0;
      steady_hi = 16.0;
      run_end = 20.0;
      churn_q = 100;
      pre_lo = 6.0;
      pre_hi = 11.0;
      kill_at = 12.0;
      epoch = 2.0;
      sustained = 6.0;
      degr_lo = 13.0;
      degr_hi = 17.0;
      post_lo = 22.0;
      post_hi = 30.0;
      churn_end = 34.0;
    }

(* ------------------------------------------------------------------ *)
(* Workload generation: a pure function of (params, topology, q).      *)

let stub_populations p topo =
  let by_stub = Array.make p.stubs [] in
  for h = p.hosts - 1 downto 0 do
    let s = Topology.stub_of topo h in
    by_stub.(s) <- h :: by_stub.(s)
  done;
  by_stub

(* Zipf(1) over the (stub, stream) combos: combo [i] has weight
   1/(i+1), so a handful of popular questions dominate and sharing
   opportunities grow with q. *)
let gen_specs p topo q =
  let rng = Rng.create (7207 + (13 * q)) in
  let by_stub = stub_populations p topo in
  let streams = Array.of_list p.streams in
  let ncombos = p.stubs * Array.length streams in
  let weights = Array.init ncombos (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let draw_combo () =
    let x = Rng.float rng total in
    let acc = ref 0.0 and hit = ref (ncombos - 1) and i = ref 0 in
    while !i < ncombos do
      acc := !acc +. weights.(!i);
      if x < !acc then begin
        hit := !i;
        i := ncombos
      end
      else incr i
    done;
    !hit
  in
  List.init q (fun i ->
      let c = draw_combo () in
      let stub = c mod p.stubs and stream = streams.(c / p.stubs) in
      let publishers = Array.of_list by_stub.(stub) in
      let subscriber = publishers.(Rng.int rng (Array.length publishers)) in
      Spec.make
        ~name:(Printf.sprintf "q%03d" i)
        ~source:stream ~op:Mortar_core.Op.Sum ~window:1.0 ~publishers ~subscriber)

let attach_sensors d specs =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (s : Spec.t) ->
      Array.iter (fun h -> Hashtbl.replace seen (s.Spec.source, h) ()) s.Spec.publishers)
    specs;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []
  |> List.sort compare
  |> List.iter (fun (stream, node) ->
         D.sensor d ~node ~stream ~period:1.0 (fun _ -> Value.Int 1))

(* ------------------------------------------------------------------ *)
(* Delivered-result recording: per logical query, the best count seen
   for each window at its point of consumption (the subscriber).

   Windows are keyed by their absolute birth instant, recovered at the
   delivery site as [round (now - age)]: every sensor fires at integer
   true instants on synchronized clocks, so a result's constituents
   share one integer birth time and [now - age] lands on it (delivery
   and fan-out latencies are well under half a window). Peer-local slot
   numbers would not do — they restart from zero when a churn re-plan
   re-installs the physical query, so the two incarnations' slots are
   not comparable. *)

type sink = (string, Score.t) Hashtbl.t

(* Every logical query's score is created up-front (single-threaded) and
   then mutated only from its one delivery host, so the sharded backend
   can run delivery callbacks on different domains without the outer
   table ever being written concurrently. *)
let sink_for specs : sink =
  let sink = Hashtbl.create 64 in
  List.iter (fun (s : Spec.t) -> Hashtbl.replace sink s.Spec.name (Score.create ())) specs;
  sink

let record d (sink : sink) name ~age count =
  let now = D.now d in
  ignore
    (Score.offer (Hashtbl.find sink name) ~at:now
       ~slot:(int_of_float (Float.round (now -. age)))
       count)

(* Mean delivered completeness over the window-due range [lo, hi): the
   window born at integer w (1 s windows) is due around w + 1; a window
   with no delivery counts as zero. [denom] gives each spec's
   completeness denominator. *)
let completeness (sink : sink) specs ~denom ~lo ~hi =
  let lo_s = int_of_float lo - 1 and hi_s = int_of_float hi - 2 in
  if hi_s < lo_s || specs = [] then nan
  else begin
    let slots = List.init (hi_s - lo_s + 1) (fun i -> lo_s + i) in
    let per_spec (s : Spec.t) =
      Score.mean (Score.best (Hashtbl.find sink s.Spec.name)) ~denom:(max 1 (denom s)) slots
    in
    List.fold_left (fun acc s -> acc +. per_spec s) 0.0 specs
    /. float_of_int (List.length specs)
  end

(* Delivered windows, over every query, whose count exceeded the query's
   publishers: some host was counted twice. [completeness] clamps them. *)
let overcounted (sink : sink) specs =
  List.fold_left
    (fun acc (s : Spec.t) ->
      acc
      + List.length
          (Score.overcounted (Hashtbl.find sink s.Spec.name)
             ~publishers:(Array.length s.Spec.publishers)))
    0 specs

(* ------------------------------------------------------------------ *)
(* One deployment running one mode at one query count.                 *)

type setup = {
  d : D.t;
  specs : Spec.t list;
  sink : sink;
  reg : Registry.t option; (* Some in shared mode *)
}

(* Applies one registry action at once: from inside an engine callback on
   the re-plan path, or as the event [apply_install] schedules. *)
let apply_now st = function
  | Registry.Install { phys; root; meta; treeset; subscribers }
  | Registry.Replan { phys; root; meta; treeset; subscribers; _ } ->
    Peer.install_query (D.peer st.d root) meta treeset;
    Peer.set_result_forwards (D.peer st.d root) ~query:phys subscribers
  | Registry.Update_fanout { phys; root; subscribers } ->
    Peer.set_result_forwards (D.peer st.d root) ~query:phys subscribers
  | Registry.Remove { phys; root } ->
    Peer.set_result_forwards (D.peer st.d root) ~query:phys [];
    if Peer.plan_cached (D.peer st.d root) ~name:phys then
      Peer.remove_query (D.peer st.d root) ~name:phys

let apply_install st at_time a = D.at st.d at_time (fun () -> apply_now st a)

let setup ~mode ~q p =
  let seed = 4242 + q in
  let rng = Rng.create (seed * 7919) in
  let topo = Topology.transit_stub rng ~transits:p.transits ~stubs:p.stubs ~hosts:p.hosts () in
  let d = D.create_sharded ~seed topo in
  D.converge_coordinates d ();
  let specs = gen_specs p topo q in
  attach_sensors d specs;
  let sink = sink_for specs in
  let install_at i n =
    p.install_from +. (p.install_span *. float_of_int i /. float_of_int (max 1 n))
  in
  match mode with
  | `Naive ->
    List.iteri
      (fun i (s : Spec.t) ->
        let root = s.Spec.subscriber in
        let nodes =
          Array.to_list s.Spec.publishers |> List.filter (fun h -> h <> root) |> Array.of_list
        in
        let treeset = D.plan d ~bf:p.bf ~d:p.degree ~root ~nodes () in
        let meta =
          Query.make_meta ~name:s.Spec.name ~source:s.Spec.source ~op:s.Spec.op
            ~window:(Window.tumbling s.Spec.window) ~root ~degree:p.degree
            ~total_nodes:(Array.length s.Spec.publishers) ()
        in
        Peer.on_result (D.peer d root) (fun (r : Peer.result) ->
            if r.query = s.Spec.name then
              record d sink s.Spec.name ~age:r.age r.count);
        D.at d (install_at i (List.length specs)) (fun () ->
            Peer.install_query (D.peer d root) meta treeset))
      specs;
    { d; specs; sink; reg = None }
  | `Shared ->
    let ctx =
      Place.ctx ~topo ~coords:(D.coordinates d) ~bf:p.bf ~degree:p.degree ~candidates:3
        ~seed ()
    in
    let reg = Registry.create ~ctx () in
    let actions = Registry.add_batch reg specs in
    let st = { d; specs; sink; reg = Some reg } in
    let n = List.length actions in
    List.iteri (fun i a -> apply_install st (install_at i n) a) actions;
    (* Wire delivery sinks: the physical root records for co-located
       subscribers via on_result; every other subscriber via the
       Result_fwd remote handler. *)
    let phys_of = Hashtbl.create 64 and root_of = Hashtbl.create 64 in
    List.iter
      (fun (name, phys, root) ->
        Hashtbl.replace phys_of name phys;
        Hashtbl.replace root_of phys root)
      (Registry.mapping reg);
    let at_root = Hashtbl.create 64 and remote = Hashtbl.create 64 in
    let push tbl h v =
      Hashtbl.replace tbl h (v :: Option.value (Hashtbl.find_opt tbl h) ~default:[])
    in
    List.iter
      (fun (s : Spec.t) ->
        let phys = Hashtbl.find phys_of s.Spec.name in
        let root = Hashtbl.find root_of phys in
        if s.Spec.subscriber = root then push at_root root (phys, s.Spec.name)
        else push remote s.Spec.subscriber (phys, s.Spec.name))
      specs;
    let sorted tbl = Hashtbl.fold (fun h v acc -> (h, v) :: acc) tbl [] |> List.sort compare in
    List.iter
      (fun (h, pairs) ->
        Peer.on_result (D.peer d h) (fun (r : Peer.result) ->
            List.iter
              (fun (phys, name) ->
                if r.query = phys then
                  record d sink name ~age:r.age r.count)
              pairs))
      (sorted at_root);
    List.iter
      (fun (h, pairs) ->
        Peer.on_remote_result (D.peer d h) (fun (rr : Peer.remote_result) ->
            List.iter
              (fun (phys, name) ->
                if rr.Peer.r_query = phys then
                  record d sink name ~age:rr.Peer.r_age rr.Peer.r_count)
              pairs))
      (sorted remote);
    st

(* ------------------------------------------------------------------ *)
(* Figure phase.                                                       *)

type point = { mbps : float; compl : float; physical : int; over : int }

let run_point ~mode ~q p =
  let st = setup ~mode ~q p in
  D.run_until st.d p.run_end;
  {
    mbps = Harness.mbps st.d p.steady_lo p.steady_hi;
    compl =
      completeness st.sink st.specs
        ~denom:(fun s -> Array.length s.Spec.publishers)
        ~lo:p.steady_lo ~hi:p.steady_hi;
    physical = (match st.reg with Some r -> Registry.physical_count r | None -> q);
    over = overcounted st.sink st.specs;
  }

(* ------------------------------------------------------------------ *)
(* Churn / re-plan phase: kill one stub, compare incremental re-plan
   against a no-replan control (both shared mode, same workload).      *)

type churn_row = { pre : float; degraded : float; post : float; replans : int; c_over : int }

let busiest_stub p topo specs =
  let load = Array.make p.stubs 0 in
  List.iter
    (fun (s : Spec.t) ->
      let stub = Topology.stub_of topo s.Spec.publishers.(0) in
      load.(stub) <- load.(stub) + 1)
    specs;
  let best = ref 0 in
  Array.iteri (fun i n -> if n > load.(!best) then best := i) load;
  !best

let run_churn ~replan ~q p =
  let st = setup ~mode:`Shared ~q p in
  let reg = Option.get st.reg in
  let topo = D.topology st.d in
  let stub = busiest_stub p topo st.specs in
  let protect = Hashtbl.create 256 in
  List.iter (fun (_, _, root) -> Hashtbl.replace protect root ()) (Registry.mapping reg);
  List.iter (fun (s : Spec.t) -> Hashtbl.replace protect s.Spec.subscriber ()) st.specs;
  let victims =
    List.filter (fun h -> not (Hashtbl.mem protect h)) (D.stub_hosts st.d stub)
    |> List.sort compare
  in
  let victim_set = Hashtbl.create (List.length victims) in
  List.iter (fun h -> Hashtbl.replace victim_set h ()) victims;
  D.at st.d p.kill_at (fun () -> List.iter (fun h -> D.set_up st.d h false) victims);
  (* Failure detection: sample liveness every epoch; hosts continuously
     down for [sustained] seconds are reported dead to the registry once,
     in one batch, and the re-plan actions are applied immediately. *)
  let first_down = Hashtbl.create 256 and reported = Hashtbl.create 256 in
  let sample now =
    let up = Hashtbl.create p.hosts in
    List.iter (fun h -> Hashtbl.replace up h ()) (D.up_hosts st.d);
    let dead_batch = ref [] in
    for h = p.hosts - 1 downto 0 do
      if Hashtbl.mem up h then Hashtbl.remove first_down h
      else
        match Hashtbl.find_opt first_down h with
        | None -> Hashtbl.replace first_down h now
        | Some t0 ->
          if now -. t0 >= p.sustained && not (Hashtbl.mem reported h) then begin
            Hashtbl.replace reported h ();
            dead_batch := h :: !dead_batch
          end
    done;
    if !dead_batch <> [] && replan then
      List.iter (apply_now st) (Registry.handle_loss reg ~dead:!dead_batch)
  in
  let t = ref (p.kill_at +. p.epoch) in
  while !t < p.churn_end do
    let now = !t in
    D.at st.d now (fun () -> sample now);
    t := !t +. p.epoch
  done;
  D.run_until st.d p.churn_end;
  let all s = Array.length s.Spec.publishers in
  let survivors (s : Spec.t) =
    Array.fold_left (fun acc h -> if Hashtbl.mem victim_set h then acc else acc + 1) 0
      s.Spec.publishers
  in
  {
    pre = completeness st.sink st.specs ~denom:all ~lo:p.pre_lo ~hi:p.pre_hi;
    degraded = completeness st.sink st.specs ~denom:survivors ~lo:p.degr_lo ~hi:p.degr_hi;
    post = completeness st.sink st.specs ~denom:survivors ~lo:p.post_lo ~hi:p.post_hi;
    replans = Registry.replans reg;
    c_over = overcounted st.sink st.specs;
  }

(* ------------------------------------------------------------------ *)

let run ~quick =
  let p = params ~quick in
  let rows =
    List.map (fun q -> (q, run_point ~mode:`Naive ~q p, run_point ~mode:`Shared ~q p)) p.ladder
  in
  Common.table
    ~columns:
      [ "queries"; "physical"; "naive Mb/s"; "planned Mb/s"; "saving"; "naive compl";
        "planned compl" ]
    (fun () ->
      List.map
        (fun (q, naive, shared) ->
          let saving =
            if naive.mbps > 0.0 then Common.cell_pct (1.0 -. (shared.mbps /. naive.mbps))
            else "-"
          in
          [
            string_of_int q;
            string_of_int shared.physical;
            Common.cell_f naive.mbps;
            Common.cell_f shared.mbps;
            saving;
            Common.cell_pct naive.compl;
            Common.cell_pct shared.compl;
          ])
        rows);
  (* Churn phase: incremental re-plan vs no-replan control. *)
  let on = run_churn ~replan:true ~q:p.churn_q p in
  let off = run_churn ~replan:false ~q:p.churn_q p in
  Printf.printf "\nchurn phase (stub kill at %gs, %d queries, completeness vs survivors):\n"
    p.kill_at p.churn_q;
  Common.table
    ~columns:[ "replan"; "pre"; "degraded"; "post"; "replans" ]
    (fun () ->
      let row label (r : churn_row) =
        [
          label;
          Common.cell_pct r.pre;
          Common.cell_pct r.degraded;
          Common.cell_pct r.post;
          string_of_int r.replans;
        ]
      in
      [ row "on" on; row "off" off ]);
  let over =
    List.fold_left (fun acc (_, naive, shared) -> acc + naive.over + shared.over) 0 rows
    + on.c_over + off.c_over
  in
  (* The CI gate greps this exact line. *)
  (match List.rev rows with
  | (_, naive, shared) :: _ ->
    let ok = shared.mbps < naive.mbps && shared.compl >= naive.compl -. 0.01 && over = 0 in
    Printf.printf "mlq gate: %s\n" (if ok then "ok" else "FAIL")
  | [] -> ())

let experiment =
  {
    Common.id = "mlq";
    title = "Multi-query planner: shared trees + cost-based placement vs naive per-query";
    paper_claim =
      "beyond the paper: at wide scale many concurrent administrative queries overlap; \
       sharing canonical-key tree sets with cost-based operator placement cuts aggregate \
       in-network bandwidth versus naive per-query trees (increasingly with query count) \
       at no delivered-completeness cost, and churn-driven incremental re-planning \
       restores completeness over survivors after a stub loss";
    run;
  }

let register () = Common.register experiment
