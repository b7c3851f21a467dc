type host = int

(* Every end host hangs off exactly one router by a single access link, so
   host-to-host shortest paths always run host -> router ... router -> host.
   We exploit that: Dijkstra runs only from the ~R routers over the
   router-level graph, and we keep router x router latency/hop matrices
   plus a per-host attachment array. Memory is O(R^2 + H) and build time
   O(R * E log R) instead of the former O(H^2) matrices filled by H
   full-graph Dijkstra runs.

   Bit-compatibility: the old code ran Dijkstra from each host vertex, so
   a router's distance was accumulated as ((0 + access) + w1) + w2 + ...
   Seeding the router-level Dijkstra with [dist(source router) = 0 +
   access] (and [hops = 1]) reproduces exactly that accumulation order,
   and the final [+. access] into the destination host matches the old
   final edge relaxation — latencies and hop counts are bit-identical to
   the per-host runs. *)
type t = {
  n_hosts : int;
  r_lat : float array array; (* router x router, seconds, incl. source access link *)
  r_hop : int array array; (* router x router, incl. source access hop *)
  attach : int array; (* host -> router vertex *)
  access : float; (* host-to-router access-link latency, seconds *)
  stub : int array; (* host -> stub domain *)
  max_lat : float;
  edges : (int * int * float) list; (* router-level edges, for introspection *)
}

let ms x = x /. 1000.0

type graph = {
  mutable n : int;
  adj : (int, (int * float) list) Hashtbl.t;
  mutable edges : (int * int * float) list;
}

let graph_create () = { n = 0; adj = Hashtbl.create 256; edges = [] }

let add_vertex g =
  let v = g.n in
  g.n <- g.n + 1;
  Hashtbl.replace g.adj v [];
  v

let add_edge g u v w =
  Hashtbl.replace g.adj u ((v, w) :: Hashtbl.find g.adj u);
  Hashtbl.replace g.adj v ((u, w) :: Hashtbl.find g.adj v);
  g.edges <- (u, v, w) :: g.edges

(* Dijkstra from [src]; returns (dist, hops) arrays over all vertices.
   [init_dist]/[init_hops] seed the source label (the access link of the
   probing host in the old full-graph formulation). *)
let dijkstra g src ~init_dist ~init_hops =
  let dist = Array.make g.n infinity in
  let hops = Array.make g.n max_int in
  let visited = Array.make g.n false in
  let queue = Mortar_util.Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  dist.(src) <- init_dist;
  hops.(src) <- init_hops;
  Mortar_util.Heap.push queue (init_dist, src);
  let rec drain () =
    match Mortar_util.Heap.pop queue with
    | None -> ()
    | Some (d, u) ->
      if not visited.(u) then begin
        visited.(u) <- true;
        let relax (v, w) =
          let nd = d +. w in
          if nd < dist.(v) -. 1e-12 then begin
            dist.(v) <- nd;
            hops.(v) <- hops.(u) + 1;
            Mortar_util.Heap.push queue (nd, v)
          end
        in
        List.iter relax (Hashtbl.find g.adj u)
      end;
      drain ()
  in
  drain ();
  (dist, hops)

let finalize g ~attach ~access ~stub ~n_hosts =
  let n_routers = g.n in
  let r_lat = Array.make_matrix n_routers n_routers 0.0 in
  let r_hop = Array.make_matrix n_routers n_routers 0 in
  for r = 0 to n_routers - 1 do
    (* 0.0 +. access: the exact first relaxation of the old per-host run. *)
    let dist, hops = dijkstra g r ~init_dist:(0.0 +. access) ~init_hops:1 in
    Array.blit dist 0 r_lat.(r) 0 n_routers;
    Array.blit hops 0 r_hop.(r) 0 n_routers
  done;
  (* Largest host-to-host latency: only routers that actually host someone
     matter, and a router pairs with itself only when it hosts >= 2. *)
  let occupancy = Array.make n_routers 0 in
  Array.iter (fun r -> occupancy.(r) <- occupancy.(r) + 1) attach;
  let max_lat = ref 0.0 in
  for a = 0 to n_routers - 1 do
    if occupancy.(a) > 0 then
      for b = 0 to n_routers - 1 do
        if occupancy.(b) > 0 && (a <> b || occupancy.(a) >= 2) then begin
          let l = r_lat.(a).(b) +. access in
          if l > !max_lat then max_lat := l
        end
      done
  done;
  { n_hosts; r_lat; r_hop; attach; access; stub; max_lat = !max_lat; edges = g.edges }

let transit_stub rng ?(transits = 8) ?(stubs = 34) ~hosts () =
  assert (transits > 0 && stubs > 0 && hosts > 0);
  let g = graph_create () in
  let transit = Array.init transits (fun _ -> add_vertex g) in
  (* Transit core: a ring (guarantees connectivity) plus random chords. *)
  for i = 0 to transits - 1 do
    add_edge g transit.(i) transit.((i + 1) mod transits) (ms 20.0)
  done;
  let chords = max 0 (transits / 2) in
  for _ = 1 to chords do
    let a = Mortar_util.Rng.int rng transits and b = Mortar_util.Rng.int rng transits in
    if a <> b then add_edge g transit.(a) transit.(b) (ms 20.0)
  done;
  (* Stub routers, each homed on a random transit. *)
  let stub_router = Array.init stubs (fun _ -> add_vertex g) in
  Array.iter
    (fun s -> add_edge g s transit.(Mortar_util.Rng.int rng transits) (ms 10.0))
    stub_router;
  (* Occasional stub-stub shortcuts, as Inet topologies exhibit. *)
  for _ = 1 to stubs / 4 do
    let a = Mortar_util.Rng.int rng stubs and b = Mortar_util.Rng.int rng stubs in
    if a <> b then add_edge g stub_router.(a) stub_router.(b) (ms 2.0)
  done;
  (* End hosts spread uniformly (round-robin over a shuffled stub order, so
     counts differ by at most one). Hosts are attachment records, not graph
     vertices. *)
  let order = Array.init stubs (fun i -> i) in
  Mortar_util.Rng.shuffle rng order;
  let stub = Array.make hosts 0 in
  let attach =
    Array.init hosts (fun i ->
        let s = order.(i mod stubs) in
        stub.(i) <- s;
        stub_router.(s))
  in
  finalize g ~attach ~access:(ms 1.0) ~stub ~n_hosts:hosts

let star ~link_delay ~hosts =
  assert (hosts > 0 && link_delay >= 0.0);
  let g = graph_create () in
  let hub = add_vertex g in
  finalize g ~attach:(Array.make hosts hub) ~access:link_delay
    ~stub:(Array.make hosts 0) ~n_hosts:hosts

let hosts t = t.n_hosts

let[@inline] latency t a b =
  if a = b then 0.0 else t.r_lat.(t.attach.(a)).(t.attach.(b)) +. t.access

let hops t a b = if a = b then 0 else t.r_hop.(t.attach.(a)).(t.attach.(b)) + 1

let max_latency t = t.max_lat

let stub_of t h = t.stub.(h)

let stub_count t =
  (* Stub ids are dense from 0; the partition size is max id + 1 over the
     hosts actually present (trailing empty stubs don't need shards). *)
  Array.fold_left (fun acc s -> max acc (s + 1)) 1 t.stub

(* Smallest host-to-host latency between different stub domains: the
   lookahead of the conservative parallel engine. Every cross-shard
   message is in flight for at least this long, so a shard may safely
   run [lookahead] past the global minimum next-event time. Host pairs
   collapse to router pairs (all hosts of a stub share one router,
   and [r_lat] already folds in the source access link), so this is an
   O(S^2) scan over representative routers. [infinity] when at most one
   stub is populated (star topologies): there is nothing to overlap. *)
let lookahead t =
  let nr = Array.length t.r_lat in
  let rep = Array.make (stub_count t) (-1) in
  Array.iteri (fun h r -> rep.(t.stub.(h)) <- r) t.attach;
  let best = ref infinity in
  Array.iteri
    (fun sa ra ->
      if ra >= 0 && ra < nr then
        Array.iteri
          (fun sb rb ->
            if sb <> sa && rb >= 0 then begin
              let l = t.r_lat.(ra).(rb) +. t.access in
              if l < !best then best := l
            end)
          rep)
    rep;
  !best

let routers t = Array.length t.r_lat

let attachment t h = t.attach.(h)

let access_latency t = t.access

let router_edges (t : t) = t.edges
