module D = Mortar_emul.Deployment
module Peer = Mortar_core.Peer
module Query = Mortar_core.Query
module Value = Mortar_core.Value
module Window = Mortar_core.Window
module Obs = Mortar_obs.Obs

type recorded = {
  sim_time : float;
  slot : int;
  count : int;
  value : float;
  hops : int;
  hops_max : int;
  age : float;
}

(* Results live in a private observability registry (always on,
   independent of the global [Obs.enabled] gate): every figure number is
   derived from [Result] trace events and query-scoped metrics rather
   than ad-hoc accumulators, so what an experiment reports is exactly
   what an external metrics dump would show. *)
type t = {
  d : D.t;
  treeset : Mortar_overlay.Treeset.t;
  window : float;
  reg : Obs.Reg.t;
  track_provenance : bool;
}

let query_name = "peer-count"

let create ?(seed = 42) ?(hosts = 680) ?(transits = 8) ?(stubs = 34) ?(bf = 16) ?(degree = 4)
    ?style ?(window = 1.0) ?(mode = Query.Syncless) ?(aggregate = true)
    ?(track_provenance = false) ?offsets ?skews ?config () =
  let rng = Mortar_util.Rng.create (seed * 7919) in
  let topo = Mortar_net.Topology.transit_stub rng ~transits ~stubs ~hosts () in
  let d = D.create_sharded ~seed ?config ?offsets ?skews topo in
  D.converge_coordinates d ();
  let nodes = Array.init (hosts - 1) (fun i -> i + 1) in
  let treeset = D.plan d ?style ~bf ~d:degree ~root:0 ~nodes () in
  let meta =
    Query.make_meta ~name:query_name ~source:"ones" ~op:Mortar_core.Op.Sum
      ~window:(Window.tumbling window) ~mode ~root:0 ~degree ~total_nodes:hosts ~aggregate
      ~track_provenance ()
  in
  let t = { d; treeset; window; reg = Obs.Reg.create (); track_provenance } in
  for i = 0 to hosts - 1 do
    D.sensor d ~node:i ~stream:"ones" ~period:1.0
      ?truth_slide:(if track_provenance then Some window else None)
      (fun _ -> Value.Int 1)
  done;
  let scope = Obs.Query query_name in
  Peer.on_result (D.peer d 0) (fun (r : Peer.result) ->
      let value = match r.value with Value.Null -> 0.0 | v -> Value.to_float v in
      Obs.Reg.incr t.reg ~scope "results";
      Obs.Reg.observe t.reg ~scope "result_age" r.age;
      Obs.Reg.observe t.reg ~scope "result_count" (float_of_int r.count);
      Obs.Reg.trace t.reg ~t:(D.now d)
        (Obs.Result
           {
             query = query_name;
             slot = r.slot;
             count = r.count;
             value;
             hops = r.hops;
             hops_max = r.hops_max;
             age = r.age;
             prov = (if track_provenance then r.prov else []);
           }));
  D.at d 1.0 (fun () -> Peer.install_query (D.peer d 0) meta treeset);
  t

let deployment t = t.d

let registry t = t.reg

let run_until t time = D.run_until t.d time

let results t =
  List.filter_map
    (function
      | sim_time, Obs.Result { slot; count; value; hops; hops_max; age; _ } ->
        Some { sim_time; slot; count; value; hops; hops_max; age }
      | _ -> None)
    (Obs.Reg.events t.reg)

let results_between t t0 t1 =
  List.filter (fun r -> r.sim_time >= t0 && r.sim_time < t1) (results t)

let overcounted_windows t =
  let score = Score.create () in
  List.iter (fun r -> ignore (Score.offer score ~at:r.sim_time ~slot:r.slot r.count)) (results t);
  Score.overcounted score ~publishers:(D.hosts t.d)

let provenance_results t =
  if not t.track_provenance then []
  else
    List.filter_map
      (function
        | at, Obs.Result { prov; _ } -> Some (at, prov)
        | _ -> None)
      (Obs.Reg.events t.reg)

let live_hosts t = List.length (D.up_hosts t.d)

let union_bound t =
  let up = D.up_hosts t.d in
  let up_set = Hashtbl.create (List.length up) in
  List.iter (fun h -> Hashtbl.replace up_set h ()) up;
  List.length
    (Mortar_overlay.Connectivity.union_reachable
       (Mortar_overlay.Treeset.trees t.treeset)
       ~dead:(fun node -> not (Hashtbl.mem up_set node)))

let fail_fraction t fraction = D.fail_random t.d ~fraction

let reconnect t victims = List.iter (fun v -> D.set_up t.d v true) victims

(* Ground truth over the *current* per-tree parents (the static plan's,
   as mutated by self-healing adoptions): a live installed host can get
   summaries to the root iff the union graph of its current parent edges
   — restricted to live *installed* hosts, since an uninstalled peer
   buffers or drops foreign summaries rather than forwarding them —
   connects it to node 0. Mirrors [union_bound]'s union-reachability
   semantics, but over the repaired topology instead of the static one. *)
let repaired_unreachable t =
  let n = D.hosts t.d in
  let up = Array.make n false in
  List.iter (fun h -> up.(h) <- true) (D.up_hosts t.d);
  let parents = Array.make n None in
  let forwards = Array.make n false in
  for h = 0 to n - 1 do
    if up.(h) then begin
      parents.(h) <- Peer.current_parents (D.peer t.d h) ~query:query_name;
      forwards.(h) <- parents.(h) <> None
    end
  done;
  let children = Array.make n [] in
  for h = 0 to n - 1 do
    match parents.(h) with
    | None -> ()
    | Some ps ->
      Array.iter
        (function
          | Some p when forwards.(p) -> children.(p) <- h :: children.(p)
          | _ -> ())
        ps
  done;
  let reach = Array.make n false in
  if forwards.(0) then begin
    reach.(0) <- true;
    let q = Queue.create () in
    Queue.push 0 q;
    while not (Queue.is_empty q) do
      let p = Queue.pop q in
      List.iter
        (fun c ->
          if not reach.(c) then begin
            reach.(c) <- true;
            Queue.push c q
          end)
        children.(p)
    done
  end;
  let missing = ref [] in
  for h = n - 1 downto 1 do
    if forwards.(h) && not reach.(h) then missing := h :: !missing
  done;
  !missing

let uninstalled_live_hosts t =
  List.filter
    (fun h -> h <> 0 && not (Peer.has_query (D.peer t.d h) query_name))
    (D.up_hosts t.d)

let bytes_between series t0 t1 =
  match series with
  | None -> 0.0
  | Some s -> Mortar_sim.Series.sum_between s t0 t1

let kind_mbps t ~kind t0 t1 =
  let bytes = bytes_between (D.bytes_series t.d ~kind) t0 t1 in
  bytes *. 8.0 /. (t1 -. t0) /. 1e6

let mbps d t0 t1 =
  let bytes kind = bytes_between (D.bytes_series d ~kind) t0 t1 in
  List.fold_left (fun acc kind -> acc +. bytes kind) 0.0 (D.kinds d) *. 8.0 /. (t1 -. t0) /. 1e6

let mean_completeness t t0 t1 ~denominator =
  let rows = results_between t t0 t1 in
  match rows with
  | [] -> nan
  | _ ->
    let total = List.fold_left (fun acc r -> acc + r.count) 0 rows in
    float_of_int total /. float_of_int (List.length rows * max 1 denominator)

let mean_path_length t t0 t1 =
  let rows = results_between t t0 t1 in
  Mortar_util.Stats.mean (Array.of_list (List.map (fun r -> float_of_int r.hops) rows))

let mean_max_path_length t t0 t1 =
  let rows = results_between t t0 t1 in
  Mortar_util.Stats.mean (Array.of_list (List.map (fun r -> float_of_int r.hops_max) rows))

let mean_latency t t0 t1 =
  let rows = results_between t t0 t1 in
  Mortar_util.Stats.mean (Array.of_list (List.map (fun r -> r.age) rows))
