(* One repetition of one benchmark workload.

   Builds the workload from its public APIs (Topology, Deployment,
   Treeset, Registry/Place, Peer, Deployment.schedule_faults), runs a
   simulated warm-up, then times a fixed steady interval of virtual time
   in 1 s slices. Every result delivered to a subscriber is checked
   against a reference computation. Each metric is printed on stdout as
   one JSON record; diagnostics go to stderr. The exit code is 0 when
   every delivered result was correct, 3 when some were wrong, 2 on a
   usage or set-up failure.

   The load is an open loop in virtual time: sensors fire on a fixed
   virtual schedule whatever the simulator does, so in wall time a
   workload is a batch job measured in wall seconds per simulated second.

   Usage:
     main.exe --workload agg-10k|mlq-10k|churn-2k --seed N
              [--trace 0|1] [--domains N] [--size full|tiny]
              [--rev GIT_REV] [--nproc N] [--spans FILE]

   --trace 1 adds the per-layer measurements (delivery capture and
   replay, install convergence, per-host peer stats) and records spans
   around every call the benchmark makes into a layer; --spans writes
   them out as JSON lines. --size tiny shrinks every workload for the
   benchmark's own tests. *)

module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Op = Mortar_core.Op
module Index = Mortar_core.Index
module Summary = Mortar_core.Summary
module Ts_list = Mortar_core.Ts_list
module Topology = Mortar_net.Topology
module Transport = Mortar_net.Transport
module Engine = Mortar_sim.Engine
module Series = Mortar_sim.Series
module Spec = Mortar_plan.Spec
module Place = Mortar_plan.Place
module Registry = Mortar_plan.Registry
module Rng = Mortar_util.Rng
module Cm = Mortar_sketch.Count_min
module Hash = Mortar_sketch.Hash

let now () = Unix.gettimeofday ()

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's calls into each layer: name, start,
   end, parent. Recorded only when tracing is on, kept in memory and
   written out at the end. *)

module Span = struct
  type t = { id : int; name : string; parent : int; start : float; stop : float }

  let enabled = ref false
  let log : t list ref = ref []
  let stack : int list ref = ref []
  let next_id = ref 0

  let record name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      stack := id :: !stack;
      let start = now () in
      let close () =
        stack := List.tl !stack;
        log := { id; name; parent; start; stop = now () } :: !log
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  let total name =
    List.fold_left (fun acc s -> if s.name = name then acc +. s.stop -. s.start else acc) 0.0 !log

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.6f, \"end\": %.6f}\n" s.id
          s.name s.parent s.start s.stop)
      (List.rev !log);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Delivered results and their reference check. *)

type window_obs = {
  mutable best : int;
  mutable at : float; (* delivery of the best result *)
  mutable wrong : string option; (* the first result that failed the check *)
  mutable over : bool; (* some result counted more than the publishers *)
}

type query = {
  name : string; (* logical query *)
  phys : string; (* physical query carrying it *)
  install_at : float; (* true time the root installs [phys] *)
  op : Op.spec;
  publishers : int array;
  crashes : bool; (* publishers crash and recover *)
  windows : (int, window_obs) Hashtbl.t; (* keyed by window birth, in ms *)
}

let window_s = 1.0

(* Every result's window is identified by its absolute birth instant:
   the root's basis starts at the install instant (clocks are
   synchronized), so slot [k] was born at [install_at + k]. *)
let birth_key q slot =
  int_of_float (Float.round ((q.install_at +. (float_of_int slot *. window_s)) *. 1000.0))

(* The check is on the operator's output against the result's count;
   [score] judges the count against the publishers. *)
let reference_ok ~crashes ~publishers op value count =
  match (op, value) with
  | Op.Sum, v -> (
    (* Every reading is 1, so the sum equals the contributors. A host
       recovering from a crash first sends a boundary tuple: counted, but
       carrying no reading. *)
    match Value.to_float_opt v with
    | Some f when crashes -> Float.is_integer f && f >= 0.0 && f <= float_of_int count
    | Some f -> Float.abs (f -. float_of_int count) < 1e-6
    | None -> false)
  | Op.Sketch_count_min _, Value.Str packed -> (
    match Cm.total (Cm.of_string packed) with total -> total = count | exception _ -> false)
  | Op.Sketch_hll { b; _ }, Value.Float est ->
    (* Each publisher reports a key of its own, so the distinct
       contributors are the count when no host is counted twice, and
       never more than the publishers. *)
    let c = float_of_int (min count publishers) in
    Float.abs (est -. c) <= 3.0 *. 1.04 /. sqrt (float_of_int (1 lsl b)) *. c
  | _ -> false

(* Called on the subscriber's domain; each query's table is written by
   its one subscriber only. *)
let observe q ~at ~slot ~count ~value =
  let ok =
    reference_ok ~crashes:q.crashes ~publishers:(Array.length q.publishers) q.op value count
  in
  let over = count > Array.length q.publishers in
  let wrong =
    if ok then None
    else
      Some
        (Printf.sprintf "count %d of %d, value %s" count (Array.length q.publishers)
           (Value.show value))
  in
  let key = birth_key q slot in
  match Hashtbl.find_opt q.windows key with
  | None -> Hashtbl.replace q.windows key { best = count; at; wrong; over }
  | Some w ->
    if w.wrong = None then w.wrong <- wrong;
    w.over <- w.over || over;
    if count > w.best then begin
      w.best <- count;
      w.at <- at
    end

let new_query ?(crashes = false) ~name ~phys ~install_at ~op ~publishers () =
  { name; phys; install_at; op; publishers; crashes; windows = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Workloads. *)

type size = Full | Tiny

type setup = {
  d : D.t;
  queries : query list;
  sensors : int; (* sensor streams attached, each firing at 1 Hz *)
  first_install : float;
}

type workload = {
  wname : string;
  domains : int;
  steady_start : float; (* virtual time the steady interval begins *)
  steady_len : float;
  drain : float; (* windows closing in the last [drain] s are not scored *)
  build : size -> seed:int -> domains:int -> setup;
}

let topology rng ~hosts ~transits ~stubs =
  Span.record "topology.build" (fun () ->
      Topology.transit_stub rng ~transits ~stubs ~hosts ())

let create ?config ~seed ~domains topo =
  Span.record "deployment.create" (fun () -> D.create_sharded ~seed ?config ~domains topo)

let install d root meta treeset =
  Span.record "peer.install_call" (fun () -> Peer.install_query (D.peer d root) meta treeset)

(* One query over every host, rooted at host 0: agg-10k and churn-2k. *)
let single_query ?crashes d ~treeset ~install_at ~name =
  let hosts = D.hosts d in
  let meta =
    Query.make_meta ~name ~source:"cpu" ~op:Op.Sum ~window:(Window.tumbling window_s)
      ~mode:Query.Syncless ~root:0 ~degree:(Mortar_overlay.Treeset.degree treeset)
      ~total_nodes:hosts ()
  in
  let q =
    new_query ?crashes ~name ~phys:name ~install_at ~op:Op.Sum
      ~publishers:(Array.init hosts Fun.id) ()
  in
  for h = 0 to hosts - 1 do
    D.sensor d ~node:h ~stream:"cpu" ~period:1.0 (fun _ -> Value.Int 1)
  done;
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      if r.query = name then observe q ~at:(D.now d) ~slot:r.slot ~count:r.count ~value:r.value);
  D.at d install_at (fun () -> install d 0 meta treeset);
  { d; queries = [ q ]; sensors = hosts; first_install = install_at }

let agg =
  let build size ~seed ~domains =
    let hosts, transits, stubs = match size with Full -> (10_000, 8, 34) | Tiny -> (300, 4, 8) in
    let topo = topology (Rng.create ((seed * 7919) + 1)) ~hosts ~transits ~stubs in
    let d = create ~seed ~domains topo in
    let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
    let treeset =
      Span.record "treeset.plan" (fun () -> D.plan_random d ~bf:32 ~d:4 ~root:0 ~nodes ())
    in
    single_query d ~treeset ~install_at:1.0 ~name:"agg"
  in
  { wname = "agg-10k"; domains = 2; steady_start = 6.0; steady_len = 12.0; drain = 5.0; build }

(* mlq-10k: Zipf-drawn stub-local queries over three streams, each with
   its fixed operator, planned jointly by the multi-query registry and
   fanned out to subscribers. *)

let streams = [| "cpu"; "mem"; "net" |]

let op_of_stream ~sk_seed = function
  | "cpu" -> Op.Sum
  | "mem" -> Op.Sketch_count_min { depth = 4; width = 32; seed = sk_seed }
  | _ -> Op.Sketch_hll { b = 11; seed = sk_seed }

(* Sensor value functions: cpu reads 1 (so a sum equals its count), mem
   draws a key from a small seeded universe, net reports a per-host
   distinct key (so the distinct count equals the contributors). *)
let sensor_value ~seed stream h k =
  match stream with
  | "cpu" -> Value.Int 1
  | "mem" -> Value.Int (Hash.hash_int ~seed:(seed + h) k land 63)
  | _ -> Value.Int ((seed * 1_000_003) + h)

(* Zipf(1) over (stub, stream) combos: the combo of rank i gets a share
   1/(i+1) of the queries, rounded by largest remainder, so every seed
   has the same sharing classes and operator mix (streams interleave by
   rank). The seed picks which stub holds each rank and the subscribers. *)
let gen_specs rng topo ~queries ~stubs ~sk_seed =
  let by_stub = Array.make stubs [] in
  for h = Topology.hosts topo - 1 downto 0 do
    let s = Topology.stub_of topo h in
    by_stub.(s) <- h :: by_stub.(s)
  done;
  let ranked = Array.of_list (List.filter (fun s -> by_stub.(s) <> []) (List.init stubs Fun.id)) in
  Rng.shuffle rng ranked;
  let n = Array.length ranked * Array.length streams in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1))
  done;
  let share i = float_of_int queries /. float_of_int (i + 1) /. !total in
  let counts = Array.init n (fun i -> int_of_float (share i)) in
  let by_remainder =
    List.init n (fun i -> (share i -. float_of_int counts.(i), i))
    |> List.sort (fun (a, i) (b, j) -> if a = b then compare i j else compare b a)
  in
  let missing = queries - Array.fold_left ( + ) 0 counts in
  List.iteri (fun k (_, i) -> if k < missing then counts.(i) <- counts.(i) + 1) by_remainder;
  let next = ref 0 in
  List.concat
    (List.init n (fun i ->
         let stream = streams.(i mod Array.length streams) in
         let publishers = Array.of_list by_stub.(ranked.(i / Array.length streams)) in
         List.init counts.(i) (fun _ ->
             let name = Printf.sprintf "q%03d" !next in
             incr next;
             Spec.make ~name ~source:stream ~op:(op_of_stream ~sk_seed stream) ~window:window_s
               ~publishers ~subscriber:publishers.(Rng.int rng (Array.length publishers)))))

let mlq =
  let build size ~seed ~domains =
    let hosts, transits, stubs, nq =
      match size with Full -> (10_000, 8, 34, 200) | Tiny -> (400, 4, 8, 12)
    in
    let rng = Rng.create ((seed * 7919) + 2) in
    let topo = topology rng ~hosts ~transits ~stubs in
    let sk_seed = 1 + (seed land 0xffff) in
    let specs = gen_specs (Rng.split rng) topo ~queries:nq ~stubs ~sk_seed in
    let d = create ~seed ~domains topo in
    Span.record "vivaldi.converge" (fun () -> D.converge_coordinates d ());
    let ctx =
      Place.ctx ~topo ~coords:(D.coordinates d) ~bf:16 ~degree:2 ~candidates:3 ~seed ()
    in
    let reg = Registry.create ~ctx () in
    let actions = Span.record "registry.add_batch" (fun () -> Registry.add_batch reg specs) in
    (* Sensors: one per (stream, publisher) that some query reads. *)
    let feeds = Hashtbl.create 4096 in
    List.iter
      (fun (s : Spec.t) ->
        Array.iter (fun h -> Hashtbl.replace feeds (s.source, h) ()) s.publishers)
      specs;
    let feeds = Hashtbl.fold (fun k () acc -> k :: acc) feeds [] |> List.sort compare in
    List.iter
      (fun (stream, h) -> D.sensor d ~node:h ~stream ~period:1.0 (sensor_value ~seed stream h))
      feeds;
    (* Installs are staggered over [1, 3) s of virtual time. *)
    let n = List.length actions in
    let install_at = Hashtbl.create 64 in
    List.iteri
      (fun i a ->
        match a with
        | Registry.Install { phys; root; meta; treeset; subscribers } ->
          let at = 1.0 +. (2.0 *. float_of_int i /. float_of_int (max 1 n)) in
          Hashtbl.replace install_at phys at;
          D.at d at (fun () ->
              install d root meta treeset;
              Peer.set_result_forwards (D.peer d root) ~query:phys subscribers)
        | _ -> fail "mlq: unexpected registry action on a fresh batch")
      actions;
    let root_of = Hashtbl.create 64 in
    List.iter (fun (_, phys, root) -> Hashtbl.replace root_of phys root) (Registry.mapping reg);
    let queries =
      List.map
        (fun (name, phys, _) ->
          let s = List.find (fun (s : Spec.t) -> s.name = name) specs in
          ( s.subscriber,
            new_query ~name ~phys ~install_at:(Hashtbl.find install_at phys) ~op:s.op
              ~publishers:s.publishers () ))
        (Registry.mapping reg)
    in
    (* Subscribers co-located with the root see results through
       on_result, every other one through Result_fwd fan-out. *)
    let by_host = Hashtbl.create 64 in
    List.iter
      (fun (h, q) ->
        Hashtbl.replace by_host h (q :: Option.value (Hashtbl.find_opt by_host h) ~default:[]))
      queries;
    Hashtbl.fold (fun h qs acc -> (h, qs) :: acc) by_host []
    |> List.sort compare
    |> List.iter (fun (h, qs) ->
           let local, remote = List.partition (fun q -> Hashtbl.find root_of q.phys = h) qs in
           if local <> [] then
             Peer.on_result (D.peer d h) (fun (r : Peer.result) ->
                 List.iter
                   (fun q ->
                     if q.phys = r.query then
                       observe q ~at:(D.now d) ~slot:r.slot ~count:r.count ~value:r.value)
                   local);
           if remote <> [] then
             Peer.on_remote_result (D.peer d h) (fun (rr : Peer.remote_result) ->
                 List.iter
                   (fun q ->
                     if q.phys = rr.r_query then
                       observe q ~at:(D.now d) ~slot:rr.r_slot ~count:rr.r_count ~value:rr.r_value)
                   remote));
    { d; queries = List.map snd queries; sensors = List.length feeds; first_install = 1.0 }
  in
  { wname = "mlq-10k"; domains = 1; steady_start = 6.0; steady_len = 8.0; drain = 5.0; build }

(* churn-2k: a network-aware plan with the self-healing, reliable
   control plane under composed crash/recover churn, bursty stub loss
   and correlated stub kills. *)
let churn =
  let steady_start = 8.0 and steady_len = 40.0 and drain = 6.0 in
  let build size ~seed ~domains =
    let hosts, transits, stubs = match size with Full -> (2_000, 8, 34) | Tiny -> (240, 4, 8) in
    let rng = Rng.create ((seed * 7919) + 3) in
    let topo = topology rng ~hosts ~transits ~stubs in
    let config =
      { Peer.default_config with self_heal = true; ctl_retries = 2; warmup_buffer = 32 }
    in
    let d = create ~config ~seed ~domains topo in
    Span.record "vivaldi.converge" (fun () -> D.converge_coordinates d ());
    let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
    let treeset = Span.record "treeset.plan" (fun () -> D.plan d ~bf:16 ~d:2 ~root:0 ~nodes ()) in
    let s = single_query ~crashes:true d ~treeset ~install_at:1.0 ~name:"churn" in
    D.schedule_faults d
      (D.composed_churn d ~rng:(Rng.split rng) ~from:steady_start
         ~until:(steady_start +. steady_len -. drain)
         ~protect:[ 0 ] ~churn_period:2.0 ~churn_kills:(max 1 (hosts / 500)) ~down_min:2.0
         ~down_max:6.0 ~burst_period:5.0 ~burst_len:2.5 ~kill_period:8.0 ~kill_fraction:0.25
         ~kill_len:3.0 ());
    s
  in
  { wname = "churn-2k"; domains = 1; steady_start; steady_len; drain; build }

let workloads = [ agg; mlq; churn ]

(* ------------------------------------------------------------------ *)
(* Scoring. *)

type score = {
  attempted : int; (* expected (query, window) results *)
  delivered : int; (* delivered and correct *)
  wrong : int;
  overcounted : int; (* windows counting more hosts than the publishers *)
  completeness : float;
  latencies : float array; (* sorted, virtual s from window close *)
}

let score (w : workload) queries =
  let lo = w.steady_start and hi = w.steady_start +. w.steady_len -. w.drain in
  let attempted = ref 0 and delivered = ref 0 and wrong = ref 0 and over = ref 0 in
  let compl = ref 0.0 in
  let lat = ref [] in
  List.iter
    (fun q ->
      let pubs = Array.length q.publishers in
      (* Windows closing in [lo, hi]: close = install_at + k + 1. *)
      let k0 = int_of_float (Float.ceil (lo -. window_s -. q.install_at -. 1e-9)) in
      let k1 = int_of_float (Float.floor (hi -. window_s -. q.install_at +. 1e-9)) in
      for k = k0 to k1 do
        incr attempted;
        match Hashtbl.find_opt q.windows (birth_key q k) with
        | None -> ()
        | Some { wrong = Some why; _ } ->
          incr wrong;
          Printf.eprintf "perfbench: wrong result: %s window %d: %s\n%!" q.name k why
        | Some { over = true; best; _ } ->
          (* Some host was counted twice. The window is not delivered,
             which lowers completeness and delivered_frac, but the run
             does not fail on it: syncless windows place a summary by its
             age, so one born next to a window boundary can land in the
             neighbouring window at the root. *)
          incr over;
          Printf.eprintf "perfbench: overcounted result: %s window %d: count %d of %d\n%!"
            q.name k best pubs
        | Some o ->
          incr delivered;
          compl := !compl +. (float_of_int o.best /. float_of_int pubs);
          let close = q.install_at +. (float_of_int (k + 1) *. window_s) in
          lat := (o.at -. close) :: !lat
      done)
    queries;
  let latencies = Array.of_list !lat in
  Array.sort compare latencies;
  {
    attempted = !attempted;
    delivered = !delivered;
    wrong = !wrong;
    overcounted = !over;
    completeness = ratio !compl (float_of_int !attempted);
    latencies;
  }

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it (the
   maximum when there are too few samples), and that percentile. *)
let tail a =
  let n = Array.length a in
  if n = 0 then (0.0, 100.0)
  else if n <= 10 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Install convergence: every live publisher hosts its query. *)

let pending_installs (s : setup) =
  let live = Array.make (D.hosts s.d) false in
  List.iter (fun h -> live.(h) <- true) (D.up_hosts s.d);
  List.fold_left
    (fun acc q ->
      Array.fold_left
        (fun acc h ->
          if live.(h) && not (Peer.has_query (D.peer s.d h) q.phys) then acc + 1 else acc)
        acc q.publishers)
    0 s.queries

(* ------------------------------------------------------------------ *)
(* Traced-run instrumentation: deliveries observed per destination host
   (each slot written only from its host's shard domain). *)

let kind_names = [| "data"; "heartbeat"; "control"; "result" |]

let kind_index = function
  | "data" -> 0
  | "heartbeat" -> 1
  | "control" -> 2
  | "result" -> 3
  | k -> fail "unknown traffic kind %s" k

type capture = {
  deliveries : int array; (* per destination host, steady interval *)
  cross : int array; (* of which from another stub (logical shard) *)
  captured : int list array; (* (src * 4 + kind), one captured second *)
  mutable counting : bool;
  mutable capturing : bool;
}

let attach_capture d =
  let n = D.hosts d in
  let topo = D.topology d in
  let c =
    {
      deliveries = Array.make n 0;
      cross = Array.make n 0;
      captured = Array.make n [];
      counting = false;
      capturing = false;
    }
  in
  D.on_deliver d (fun ~src ~dst ~kind ->
      if c.counting then begin
        c.deliveries.(dst) <- c.deliveries.(dst) + 1;
        if Topology.stub_of topo src <> Topology.stub_of topo dst then
          c.cross.(dst) <- c.cross.(dst) + 1;
        if c.capturing then c.captured.(dst) <- ((src * 4) + kind_index kind) :: c.captured.(dst)
      end);
  c

(* The captured second's traffic through a fresh Engine + Transport
   (with the deployment's fault table attached): wall ns per send,
   delivery events included. *)
let replay_transport d c =
  let topo = D.topology d in
  let msgs =
    Array.to_list c.captured
    |> List.mapi (fun dst l -> List.rev_map (fun x -> (x / 4, dst, kind_names.(x mod 4))) l)
    |> List.concat
  in
  let sends = List.length msgs in
  if sends = 0 then 0.0
  else
    Span.record "transport.replay" (fun () ->
        let engine = Engine.create () in
        let tr = Transport.create engine topo ~faults:(D.faults d) ~rng:(Rng.create 17) () in
        for h = 0 to D.hosts d - 1 do
          Transport.register tr h (fun ~src:_ () -> ())
        done;
        let t0 = now () in
        List.iter (fun (src, dst, kind) -> Transport.send tr ~src ~dst ~size:64 ~kind ()) msgs;
        Engine.run engine;
        (now () -. t0) *. 1e9 /. float_of_int sends)

(* Each host's data fan-in in the captured second, replayed as
   summaries merged into a TS list over two in-flight windows and
   evicted: wall ns per insert. *)
let replay_ts_list c =
  let fanin =
    Array.map (List.fold_left (fun acc x -> if x mod 4 = 0 then acc + 1 else acc) 0) c.captured
  in
  let inserts = Array.fold_left ( + ) 0 fanin in
  if inserts = 0 then 0.0
  else
    Span.record "ts_list.replay" (fun () ->
        let op = Op.compile Op.Sum in
        let passes = 5 in
        let t0 = now () in
        for _ = 1 to passes do
          Array.iter
            (fun f ->
              if f > 0 then begin
                let ts = Ts_list.create ~op () in
                for i = 0 to f - 1 do
                  let index = Index.of_slot ~slide:window_s (i mod 2) in
                  Ts_list.insert ts ~now:0.0 ~deadline:1.0
                    (Summary.make ~index ~value:(Value.Float 1.0) ~count:1 ())
                done;
                ignore (Ts_list.force_pop ts ~now:2.0)
              end)
            fanin
        done;
        (now () -. t0) *. 1e9 /. float_of_int (passes * inserts))

(* Real cm/hll partials (lifted from mlq sensor values) merged through
   the compiled operator: ns per merge. Also a model, not a measurement,
   of the sketch share of one window's data bytes: every publisher sends
   its own unmerged partial once. Merged partials sent up the trees, and
   hll's switch from sparse to dense form as they grow, are left out. *)
let sketch_layer ~seed queries =
  let sketch q = match q.op with Op.Sum -> false | _ -> true in
  let sq = List.filter sketch queries in
  if sq = [] then (0.0, 0.0)
  else
    Span.record "op.sketch" (fun () ->
        let partial q h =
          let stream = match q.op with Op.Sketch_count_min _ -> "mem" | _ -> "net" in
          (Op.compile q.op).lift (sensor_value ~seed stream h 0)
        in
        let per_op =
          List.sort_uniq compare (List.map (fun q -> q.op) sq)
          |> List.map (fun op ->
                 let impl = Op.compile op in
                 let q = List.find (fun q -> q.op = op) sq in
                 let pubs = q.publishers in
                 let parts = Array.init 64 (fun i -> partial q pubs.(i mod Array.length pubs)) in
                 let rounds = 20_000 in
                 let acc = ref impl.init in
                 let t0 = now () in
                 for i = 0 to rounds - 1 do
                   acc := impl.merge !acc parts.(i land 63)
                 done;
                 (now () -. t0) *. 1e9 /. float_of_int rounds)
        in
        let merge_ns = List.fold_left ( +. ) 0.0 per_op /. float_of_int (List.length per_op) in
        let bytes q =
          let value = if sketch q then partial q q.publishers.(0) else Value.Float 1.0 in
          let s = Summary.make ~index:(Index.of_slot ~slide:window_s 0) ~value ~count:1 () in
          float_of_int (Array.length q.publishers * Summary.wire_size s)
        in
        let total = List.fold_left (fun acc q -> acc +. bytes q) 0.0 queries in
        let sk = List.fold_left (fun acc q -> acc +. bytes q) 0.0 sq in
        (merge_ns, ratio sk total))

(* ------------------------------------------------------------------ *)
(* Output: one JSON record per metric, carrying the run's metadata. *)

type meta = {
  workload : string;
  seed : int;
  domains : int;
  shards : int;
  nproc : int;
  rev : string;
  size : string;
  trace : bool;
}

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit m ?(extra = []) name unit_ value =
  if not (Float.is_finite value) then fail "metric %s is not finite" name;
  let extra = List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) extra in
  Printf.printf
    "{\"workload\": %S, \"metric\": %S, \"value\": %s, \"unit\": %S%s, \"seed\": %d, \
     \"domains\": %d, \"shards\": %d, \"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \"size\": \
     %S, \"trace\": %b}\n"
    m.workload name (json_num value) unit_ (String.concat "" extra) m.seed m.domains m.shards
    m.nproc Sys.ocaml_version m.rev m.size m.trace

(* ------------------------------------------------------------------ *)

let run (w : workload) ~size ~seed ~domains ~trace ~nproc ~rev =
  Span.enabled := trace;
  let t0 = now () in
  let s, capture, converge_vs =
    Span.record "workload.setup" (fun () ->
        let s = w.build size ~seed ~domains in
        let capture = if trace then Some (attach_capture s.d) else None in
        (* The traced run steps the warm-up finely to time install
           convergence. *)
        let converge_vs =
          Span.record "deployment.warmup" (fun () ->
              if not trace then begin
                D.run_until s.d w.steady_start;
                0.0
              end
              else begin
                let converged = ref None in
                let t = ref s.first_install in
                D.run_until s.d !t;
                while !t < w.steady_start do
                  t := Float.min w.steady_start (!t +. 0.05);
                  D.run_until s.d !t;
                  if !converged = None && pending_installs s = 0 then converged := Some !t
                done;
                match !converged with Some c -> c -. s.first_install | None -> w.steady_start
              end)
        in
        let pending = pending_installs s in
        if pending > 0 then
          fail "%s: install has not converged by %.1f vs (%d live publishers lack their query)"
            w.wname w.steady_start pending;
        (s, capture, converge_vs))
  in
  let d = s.d in
  let setup_s = now () -. t0 in
  (* Steady interval, in 1 vs slices. *)
  let stats () = Array.init (D.hosts d) (fun h -> Peer.stats (D.peer d h)) in
  let stats0 = if trace then stats () else [||] in
  let gc0 = Gc.quick_stat () in
  let ev0 = D.events_fired d and sent0 = D.messages_sent d and dlv0 = D.messages_delivered d in
  Option.iter (fun c -> c.counting <- true) capture;
  let slices = int_of_float w.steady_len in
  let slice_s = Array.make slices 0.0 in
  let t1 = now () in
  Span.record "workload.steady" (fun () ->
      for i = 0 to slices - 1 do
        (* The second steady second is captured for the replays. *)
        Option.iter (fun c -> c.capturing <- i = 1) capture;
        let a = now () in
        Span.record "deployment.run_until" (fun () ->
            D.run_until d (w.steady_start +. float_of_int (i + 1)));
        slice_s.(i) <- now () -. a
      done);
  let wall = now () -. t1 in
  let gc1 = Gc.quick_stat () in
  let events = D.events_fired d - ev0
  and sent = D.messages_sent d - sent0
  and delivered = D.messages_delivered d - dlv0 in
  let sc = score w s.queries in
  let hosts = D.hosts d in
  let m =
    {
      workload = w.wname;
      seed;
      domains;
      shards = D.shard_count d;
      nproc;
      rev;
      size = (match size with Full -> "full" | Tiny -> "tiny");
      trace;
    }
  in
  let lo = w.steady_start and hi = w.steady_start +. w.steady_len in
  let bytes kind =
    match D.bytes_series d ~kind with None -> 0.0 | Some se -> Series.sum_between se lo hi
  in
  let n = Array.length sc.latencies in
  let tail_v, tail_p = tail sc.latencies in
  let failed = sc.attempted - sc.delivered in
  let failed_frac = ratio (float_of_int failed) (float_of_int sc.attempted) in
  let counts =
    [
      ("attempted", string_of_int sc.attempted);
      ("failed", string_of_int failed);
      ("wrong", string_of_int sc.wrong);
      ("overcounted", string_of_int sc.overcounted);
    ]
  in
  let e = emit m in
  e "wall_s_per_vs" "s/vs" (wall /. w.steady_len);
  e "setup_s" "s" setup_s;
  e "heap_kb_per_host" "KiB"
    (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1024.0 /. float_of_int hosts);
  e "completeness" "ratio" sc.completeness;
  e ~extra:counts "failed_frac" "ratio" failed_frac;
  e ~extra:counts "delivered_frac" "ratio" (1.0 -. failed_frac);
  e ~extra:[ ("samples", string_of_int n) ] "latency_p50_vs" "vs" (median sc.latencies);
  e ~extra:[ ("samples", string_of_int n); ("percentile", json_num tail_p) ] "latency_tail_vs" "vs"
    tail_v;
  e "net_mbps" "Mbit/s"
    (Array.fold_left (fun acc k -> acc +. bytes k) 0.0 kind_names *. 8.0 /. w.steady_len /. 1e6);
  (* Counts that are exact functions of the seed; the determinism test
     compares them across runs and domain counts. *)
  e "events" "count" (float_of_int events);
  e "sends" "count" (float_of_int sent);
  e "result.overcounted_windows" "count" (float_of_int sc.overcounted);
  let tuples = float_of_int s.sensors *. w.steady_len in
  let gc_per f = ratio (f gc1 -. f gc0) tuples in
  e "gc.minor_words_per_tuple" "words" (gc_per (fun g -> g.Gc.minor_words));
  e "gc.promoted_words_per_tuple" "words" (gc_per (fun g -> g.Gc.promoted_words));
  e "gc.major_collections" "count"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  Array.iter (fun k -> e ("transport.bytes." ^ k) "bytes" (bytes k)) kind_names;
  (match capture with
  | None -> ()
  | Some c ->
    c.counting <- false;
    let stats1 = stats () in
    let stat f =
      let acc = ref 0 in
      Array.iteri (fun h s1 -> acc := !acc + f s1 - f stats0.(h)) stats1;
      float_of_int !acc
    in
    let sorted_slices = Array.copy slice_s in
    Array.sort compare sorted_slices;
    e "topology.build_s" "s" (Span.total "topology.build");
    e "deployment.create_s" "s" (Span.total "deployment.create");
    e "treeset.plan_s" "s" (Span.total "treeset.plan");
    e "vivaldi.converge_s" "s" (Span.total "vivaldi.converge");
    e "registry.add_batch_s" "s" (Span.total "registry.add_batch");
    e "peer.install_call_s" "s" (Span.total "peer.install_call");
    e "peer.install_converge_vs" "vs" converge_vs;
    e "deployment.slice_s_p50" "s" (median sorted_slices);
    e "deployment.slice_s_max" "s" sorted_slices.(slices - 1);
    e "deployment.events_per_tuple" "count" (ratio (float_of_int events) tuples);
    e "deployment.events_per_s" "1/s" (ratio (float_of_int events) wall);
    e "deployment.epochs" "count" (ratio w.steady_len (D.lookahead d));
    let per_stub = Array.make (Topology.stub_count (D.topology d)) 0 in
    Array.iteri
      (fun h n ->
        let st = Topology.stub_of (D.topology d) h in
        per_stub.(st) <- per_stub.(st) + n)
      c.deliveries;
    let populated = List.filter (fun n -> n > 0) (Array.to_list per_stub) in
    let total_dlv = List.fold_left ( + ) 0 populated in
    e "deployment.shard_skew" "ratio"
      (ratio
         (float_of_int (List.fold_left max 0 populated))
         (ratio (float_of_int total_dlv) (float_of_int (List.length populated))));
    e "transport.sends_per_tuple" "count" (ratio (float_of_int sent) tuples);
    e "transport.delivery_ratio" "ratio" (ratio (float_of_int delivered) (float_of_int sent));
    e "transport.cross_shard_frac" "ratio"
      (ratio (float_of_int (Array.fold_left ( + ) 0 c.cross)) (float_of_int total_dlv));
    e "transport.replay_ns_per_send" "ns" (replay_transport d c);
    e "ts_list.replay_ns_per_insert" "ns" (replay_ts_list c);
    let merge_ns, sketch_share = sketch_layer ~seed s.queries in
    e "op.sketch_merge_ns" "ns" merge_ns;
    e "op.sketch_byte_share_model" "ratio" sketch_share;
    e "peer.tuples_late" "count" (stat (fun s -> s.Peer.tuples_late));
    e "peer.tuples_dropped" "count" (stat (fun s -> s.Peer.tuples_dropped));
    e "peer.reconciliations" "count" (stat (fun s -> s.Peer.reconciliations));
    e "peer.ctl_retransmits" "count" (stat (fun s -> s.Peer.ctl_retransmits));
    e "peer.ctl_abandoned" "count" (stat (fun s -> s.Peer.ctl_abandoned));
    e "peer.repairs" "count" (stat (fun s -> s.Peer.repairs));
    e "peer.warmup_dropped" "count" (stat (fun s -> s.Peer.warmup_dropped));
    let ts_max = ref 0 in
    for h = 0 to hosts - 1 do
      let p = D.peer d h in
      List.iter
        (fun q ->
          match Peer.ts_length p ~query:q with Some l -> ts_max := max !ts_max l | None -> ())
        (Peer.installed p)
    done;
    e "peer.ts_length_max" "count" (float_of_int !ts_max));
  sc.wrong

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> fail "bad argument %s" a
  in
  let opts = parse [] args in
  let get k default = Option.value (List.assoc_opt k opts) ~default in
  let int k default =
    match int_of_string_opt (get k (string_of_int default)) with
    | Some v -> v
    | None -> fail "--%s expects an integer" k
  in
  let name = get "workload" "" in
  let w =
    match List.find_opt (fun w -> w.wname = name) workloads with
    | Some w -> w
    | None ->
      fail "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun w -> w.wname) workloads))
  in
  let size =
    match get "size" "full" with "full" -> Full | "tiny" -> Tiny | s -> fail "bad --size %s" s
  in
  let trace = int "trace" 0 = 1 in
  let wrong =
    run w ~size ~seed:(int "seed" 1) ~domains:(int "domains" w.domains) ~trace
      ~nproc:(int "nproc" 0) ~rev:(get "rev" "unknown")
  in
  Option.iter Span.write (List.assoc_opt "spans" opts);
  if wrong > 0 then begin
    Printf.eprintf "perfbench: %s: %d delivered results failed the reference check\n" w.wname
      wrong;
    exit 3
  end
