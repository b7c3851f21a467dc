module Id = Mortar_dht.Node_id
module Routing_state = Mortar_dht.Routing_state
module Rng = Mortar_util.Rng

type msg =
  | Update of { query : string; child : Id.t; value : float; count : int }
  | Probe of { query : string; origin : int }
  | Probe_reply of { query : string; value : float; count : int }
  | Ping
  | Pong
  | Leafset_request
  | Leafset_reply of { members : int list }

(* Sizes calibrated to FreePastry 2.0's serialized-Java messages (routing
   headers, GUIDs, object streams): the paper measured 67 Mbps for this
   stack versus Mortar's lean encodings, and the ratio only reproduces
   with realistic message weights. *)
let msg_size = function
  | Update { query; _ } -> 512 + String.length query
  | Probe { query; _ } -> 256 + String.length query
  | Probe_reply { query; _ } -> 280 + String.length query
  | Ping | Pong -> 96
  | Leafset_request -> 96
  | Leafset_reply { members } -> 256 + (16 * List.length members)

type timer = Mortar_sim.Engine.handle

let no_timer = Mortar_sim.Engine.no_handle

type runtime = {
  send : src:int -> dst:int -> size:int -> kind:string -> msg -> unit;
  local_time : int -> float;
  set_timer : int -> after:float -> (int -> unit) -> timer;
}

(* Timer settings of §7.2.3, in seconds. *)
let publish_period = 5.0

let lease = 30.0 (* child partials expire this long after their update *)

let ping_period = 20.0

let leaf_maintenance = 10.0

let route_maintenance = 60.0

let ping_timeout = 25.0 (* silence after which a neighbor is declared dead *)

type cached = { value : float; count : int; expires : float }

type attribute = {
  mutable local : float;
  children : (int64, cached) Hashtbl.t; (* child id -> partial *)
  mutable publish_timer : timer; (* [no_timer] until the first publish *)
}

type t = {
  self : int;
  rt : runtime; (* shared by every node *)
  rng : Rng.t;
  state : Routing_state.t;
  attrs : (string, attribute) Hashtbl.t;
  id_to_host : (int64, int) Hashtbl.t;
  mutable members : int list;
  last_heard : (int64, float) Hashtbl.t;
  mutable probe_handlers : (query:string -> value:float -> count:int -> unit) list;
}

let id_of_host host = Id.hash_host host

let create rt ~self ~rng =
  {
    self;
    rt;
    rng;
    state = Routing_state.create ~self:(id_of_host self) ~leaf_radius:8;
    attrs = Hashtbl.create 4;
    id_to_host = Hashtbl.create 64;
    members = [];
    last_heard = Hashtbl.create 64;
    probe_handlers = [];
  }

let now t = t.rt.local_time t.self

let host_of t id = Hashtbl.find_opt t.id_to_host (Id.to_int64 id)

let learn t host =
  if host <> t.self then begin
    let id = id_of_host host in
    Hashtbl.replace t.id_to_host (Id.to_int64 id) host;
    Routing_state.add t.state id
  end

let send_to_id t id ~kind msg =
  match host_of t id with
  | Some dst -> t.rt.send ~src:t.self ~dst ~size:(msg_size msg) ~kind msg
  | None -> ()

let declare_dead t id =
  Routing_state.remove t.state id;
  Hashtbl.remove t.last_heard (Id.to_int64 id)

(* ------------------------------------------------------------------ *)
(* Aggregation.                                                         *)

let attribute t query =
  match Hashtbl.find_opt t.attrs query with
  | Some a -> a
  | None ->
    let a = { local = 0.0; children = Hashtbl.create 8; publish_timer = no_timer } in
    Hashtbl.replace t.attrs query a;
    a

let aggregate t query =
  let a = attribute t query in
  let n = now t in
  let value = ref a.local and count = ref 1 in
  Hashtbl.iter
    (fun _ c ->
      if c.expires > n then begin
        value := !value +. c.value;
        count := !count + c.count
      end)
    a.children;
  (!value, !count)

let parent_of t query = Routing_state.next_hop t.state (Id.hash_name query)

let is_root t ~query = parent_of t query = None

let root_value t ~query =
  if is_root t ~query then Some (aggregate t query) else None

(* Update-up: recompute and push toward the root immediately. *)
let push_up t query =
  match parent_of t query with
  | None -> () (* we are the root; probes read the aggregate *)
  | Some parent ->
    let value, count = aggregate t query in
    send_to_id t parent ~kind:"data"
      (Update { query; child = Routing_state.self t.state; value; count })

let rec publish_tick t query =
  push_up t query;
  let a = attribute t query in
  a.publish_timer <- t.rt.set_timer t.self ~after:publish_period (fun _ -> publish_tick t query)

let set_local t ~query v =
  let a = attribute t query in
  a.local <- v;
  if a.publish_timer = no_timer then
    (* Desynchronise publishers. *)
    a.publish_timer <-
      t.rt.set_timer t.self
        ~after:(Rng.float t.rng publish_period)
        (fun _ -> publish_tick t query)

(* ------------------------------------------------------------------ *)
(* Maintenance.                                                         *)

let ping_leaves t =
  let check id =
    (* Expire neighbors that have not answered within the timeout. *)
    (match Hashtbl.find_opt t.last_heard (Id.to_int64 id) with
    | Some heard when now t -. heard > ping_timeout -> declare_dead t id
    | Some _ -> ()
    | None -> Hashtbl.replace t.last_heard (Id.to_int64 id) (now t));
    send_to_id t id ~kind:"control" Ping
  in
  List.iter check (Routing_state.leaves t.state);
  (* The next hop of every active attribute is the operationally critical
     entry: a dead one black-holes updates and probes, so check it every
     round (FreePastry's route-set liveness checks). *)
  Hashtbl.iter
    (fun query _ ->
      match parent_of t query with Some id -> check id | None -> ())
    t.attrs;
  (* Plus a small random sample of everything known, for stale table rows. *)
  let known = Routing_state.known t.state in
  let n = List.length known in
  if n > 0 then
    for _ = 1 to min 6 n do
      check (List.nth known (Rng.int t.rng n))
    done

let leaf_repair t =
  (* Ask a random live leaf for its membership view; if we have no leaves
     at all, fall back to a random member (reactive bootstrap). *)
  match Routing_state.leaves t.state with
  | [] -> (
    match t.members with
    | [] -> ()
    | members -> (
      let candidates = List.filter (fun h -> h <> t.self) members in
      match candidates with
      | [] -> ()
      | _ ->
        let dst = Rng.pick_list t.rng candidates in
        t.rt.send ~src:t.self ~dst ~size:(msg_size Leafset_request) ~kind:"control" Leafset_request))
  | leaves -> (
    let id = Rng.pick_list t.rng leaves in
    match host_of t id with
    | Some dst ->
      t.rt.send ~src:t.self ~dst ~size:(msg_size Leafset_request) ~kind:"control" Leafset_request
    | None -> ())

let route_repair t =
  (* Refresh the routing table by re-learning a random sample of the
     membership — FreePastry refreshes rows from peers; sampling the
     well-known membership has the same effect in this setting. *)
  match t.members with
  | [] -> ()
  | members ->
    let sample_size = min 8 (List.length members) in
    for _ = 1 to sample_size do
      let host = Rng.pick_list t.rng members in
      if host <> t.self then begin
        let id = id_of_host host in
        (* Only re-add nodes not currently believed dead: believed-dead
           nodes return via Pong / leaf replies. *)
        if not (List.exists (Id.equal id) (Routing_state.leaves t.state)) then learn t host
      end
    done

let bootstrap t ~members =
  t.members <- members;
  List.iter (learn t) members;
  let jitter period = Rng.float t.rng period in
  let rec ping_loop _ =
    ping_leaves t;
    ignore (t.rt.set_timer t.self ~after:ping_period ping_loop)
  in
  let rec leaf_loop _ =
    leaf_repair t;
    ignore (t.rt.set_timer t.self ~after:leaf_maintenance leaf_loop)
  in
  let rec route_loop _ =
    route_repair t;
    ignore (t.rt.set_timer t.self ~after:route_maintenance route_loop)
  in
  ignore (t.rt.set_timer t.self ~after:(jitter ping_period) ping_loop);
  ignore (t.rt.set_timer t.self ~after:(jitter leaf_maintenance) leaf_loop);
  ignore (t.rt.set_timer t.self ~after:(jitter route_maintenance) route_loop)

(* ------------------------------------------------------------------ *)
(* Messages.                                                            *)

let on_probe_reply t f = t.probe_handlers <- f :: t.probe_handlers

let probe t ~query =
  let key = Id.hash_name query in
  match Routing_state.next_hop t.state key with
  | None ->
    (* We are the root ourselves. *)
    let value, count = aggregate t query in
    List.iter (fun f -> f ~query ~value ~count) t.probe_handlers
  | Some hop -> send_to_id t hop ~kind:"control" (Probe { query; origin = t.self })

let receive t ~src msg =
  learn t src;
  Hashtbl.replace t.last_heard (Id.to_int64 (id_of_host src)) (now t);
  match msg with
  | Ping -> t.rt.send ~src:t.self ~dst:src ~size:(msg_size Pong) ~kind:"control" Pong
  | Pong -> ()
  | Leafset_request ->
    let members =
      List.filter_map (fun id -> host_of t id) (Routing_state.leaves t.state)
    in
    t.rt.send ~src:t.self ~dst:src
      ~size:(msg_size (Leafset_reply { members }))
      ~kind:"control"
      (Leafset_reply { members })
  | Leafset_reply { members } -> List.iter (learn t) members
  | Update { query; child; value; count } ->
    let a = attribute t query in
    Hashtbl.replace a.children (Id.to_int64 child)
      { value; count; expires = now t +. lease };
    (* Update-up: propagate immediately, no batching (§7.2.3). *)
    push_up t query
  | Probe { query; origin } -> (
    let key = Id.hash_name query in
    match Routing_state.next_hop t.state key with
    | None ->
      let value, count = aggregate t query in
      t.rt.send ~src:t.self ~dst:origin
        ~size:(msg_size (Probe_reply { query; value; count }))
        ~kind:"control"
        (Probe_reply { query; value; count })
    | Some hop -> send_to_id t hop ~kind:"control" (Probe { query; origin }))
  | Probe_reply { query; value; count } ->
    List.iter (fun f -> f ~query ~value ~count) t.probe_handlers
