(* Tests for the simplified Pastry substrate and the SDIMS layer. *)

module Id = Mortar_dht.Node_id
module Routing_state = Mortar_dht.Routing_state
module Sdims = Mortar_sdims.Sdims
module Engine = Mortar_sim.Engine
module Transport = Mortar_net.Transport
module Rng = Mortar_util.Rng

(* ------------------------------------------------------------------ *)
(* Node ids *)

let test_id_digits () =
  let id = Id.of_int64 0x123456789ABCDEF0L in
  Alcotest.(check int) "digit 0" 1 (Id.digit id 0);
  Alcotest.(check int) "digit 1" 2 (Id.digit id 1);
  Alcotest.(check int) "digit 15" 0 (Id.digit id 15)

let test_id_prefix () =
  let a = Id.of_int64 0x1234000000000000L and b = Id.of_int64 0x1235000000000000L in
  Alcotest.(check int) "shares 3 digits" 3 (Id.prefix_len a b);
  Alcotest.(check int) "equal ids" 16 (Id.prefix_len a a)

let test_id_distance_symmetric () =
  let rng = Rng.create 77 in
  for _ = 1 to 200 do
    let a = Id.of_int64 (Rng.bits64 rng) and b = Id.of_int64 (Rng.bits64 rng) in
    Alcotest.(check int64) "symmetric" (Id.distance a b) (Id.distance b a)
  done

let test_id_distance_zero () =
  let a = Id.hash_host 5 in
  Alcotest.(check int64) "self distance" 0L (Id.distance a a)

let test_id_hash_deterministic () =
  Alcotest.(check bool) "host hash stable" true (Id.equal (Id.hash_host 9) (Id.hash_host 9));
  Alcotest.(check bool) "hosts differ" false (Id.equal (Id.hash_host 9) (Id.hash_host 10));
  Alcotest.(check bool) "name hash stable" true
    (Id.equal (Id.hash_name "cpu") (Id.hash_name "cpu"))

(* ------------------------------------------------------------------ *)
(* Routing state *)

let build_state ~self ~others =
  let st = Routing_state.create ~self:(Id.hash_host self) ~leaf_radius:8 in
  List.iter (fun h -> Routing_state.add st (Id.hash_host h)) others;
  st

let test_routing_progress () =
  (* Routing from any node always makes progress: the next hop is strictly
     closer to the key, so the path terminates at the key's root. *)
  let n = 50 in
  let hosts = List.init n Fun.id in
  let states = List.map (fun h -> build_state ~self:h ~others:hosts) hosts in
  let state_of id =
    List.nth states
      (Option.get (List.find_index (fun h -> Id.equal (Id.hash_host h) id) hosts))
  in
  let key = Id.hash_name "attribute" in
  List.iter
    (fun start ->
      let rec walk id hops =
        Alcotest.(check bool) "bounded path" true (hops < 20);
        match Routing_state.next_hop (state_of id) key with
        | None -> id
        | Some next ->
          Alcotest.(check bool) "strictly closer" true
            (Id.compare_ring
               (Id.of_int64 (Id.distance next key))
               (Id.of_int64 (Id.distance id key))
            < 0);
          walk next (hops + 1)
      in
      let root = walk (Id.hash_host start) 0 in
      (* Every start converges on the same root: the globally closest. *)
      let global_best =
        List.fold_left
          (fun best h ->
            let id = Id.hash_host h in
            match best with
            | None -> Some id
            | Some b ->
              if Id.compare_ring (Id.of_int64 (Id.distance id key)) (Id.of_int64 (Id.distance b key)) < 0
              then Some id
              else best)
          None hosts
      in
      Alcotest.(check bool) "unique root" true (Id.equal root (Option.get global_best)))
    hosts

let test_routing_remove () =
  let st = build_state ~self:0 ~others:[ 0; 1; 2; 3 ] in
  let key = Id.hash_name "k" in
  (match Routing_state.next_hop st key with
  | Some hop ->
    Routing_state.remove st hop;
    (match Routing_state.next_hop st key with
    | Some hop2 -> Alcotest.(check bool) "new hop" false (Id.equal hop hop2)
    | None -> () (* self became the closest *))
  | None -> ());
  Alcotest.(check bool) "removed not known" true
    (match Routing_state.next_hop st key with
    | Some h -> not (List.exists (Id.equal h) [])
    | None -> true)

let test_leafset_bounded () =
  let st = build_state ~self:0 ~others:(List.init 200 Fun.id) in
  Alcotest.(check bool) "leafset bounded by 2r" true
    (List.length (Routing_state.leaves st) <= 16)

(* ------------------------------------------------------------------ *)
(* SDIMS *)

let build_world ~hosts =
  let rng = Rng.create 88 in
  let topo = Mortar_net.Topology.transit_stub rng ~transits:4 ~stubs:8 ~hosts () in
  let engine = Engine.create () in
  let transport = Transport.create engine topo ~rng:(Rng.split rng) () in
  let rt : Sdims.runtime =
    {
      Sdims.send = Transport.send transport;
      local_time = (fun _ -> Engine.now engine);
      set_timer = (fun h ~after f -> Engine.post engine ~at:(Engine.now engine +. after) f h);
    }
  in
  let nodes = Array.init hosts (fun i -> Sdims.create rt ~self:i ~rng:(Rng.split rng)) in
  Array.iteri (fun i n -> Transport.register transport i (fun ~src m -> Sdims.receive n ~src m)) nodes;
  let members = List.init hosts Fun.id in
  Array.iter (fun n -> Sdims.bootstrap n ~members) nodes;
  (engine, transport, nodes)

let test_sdims_aggregates () =
  let engine, _, nodes = build_world ~hosts:40 in
  Array.iter (fun n -> Sdims.set_local n ~query:"count" 1.0) nodes;
  Engine.run ~until:60.0 engine;
  (* Find the root and check its aggregate counts everyone. *)
  let roots = Array.to_list nodes |> List.filter (fun n -> Sdims.is_root n ~query:"count") in
  Alcotest.(check int) "exactly one root" 1 (List.length roots);
  match Sdims.root_value (List.hd roots) ~query:"count" with
  | Some (value, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "root sees all 40 (got %.0f)" value)
      true
      (value >= 39.0 && value <= 41.0)
  | None -> Alcotest.fail "root has no value"

let test_sdims_probe () =
  let engine, _, nodes = build_world ~hosts:30 in
  Array.iter (fun n -> Sdims.set_local n ~query:"count" 1.0) nodes;
  Engine.run ~until:40.0 engine;
  let got = ref None in
  Sdims.on_probe_reply nodes.(3) (fun ~query:_ ~value ~count:_ -> got := Some value);
  Sdims.probe nodes.(3) ~query:"count";
  Engine.run ~until:45.0 engine;
  match !got with
  | Some v -> Alcotest.(check bool) "probe close to 30" true (v >= 29.0 && v <= 31.0)
  | None -> Alcotest.fail "no probe reply"

let test_sdims_lease_expiry () =
  let engine, transport, nodes = build_world ~hosts:30 in
  Array.iter (fun n -> Sdims.set_local n ~query:"count" 1.0) nodes;
  Engine.run ~until:40.0 engine;
  (* Disconnect a third of the nodes; after ping timeout + lease, the root
     aggregate drops. *)
  for i = 20 to 29 do
    Transport.set_up transport i false
  done;
  Engine.run ~until:140.0 engine;
  let roots = Array.to_list nodes |> List.filteri (fun i n -> i < 20 && Sdims.is_root n ~query:"count") in
  match roots with
  | root :: _ -> (
    match Sdims.root_value root ~query:"count" with
    | Some (value, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "stale leases expired (got %.0f)" value)
        true (value <= 23.0)
    | None -> Alcotest.fail "no value")
  | [] -> () (* the root itself went down; nothing to assert *)

let test_sdims_overcount_on_flap () =
  let engine, transport, nodes = build_world ~hosts:30 in
  Array.iter (fun n -> Sdims.set_local n ~query:"count" 1.0) nodes;
  Engine.run ~until:40.0 engine;
  (* Fail a batch, wait for re-routing (but less than the lease), then
     reconnect: partials get cached at two parents; the max aggregate
     observed afterwards exceeds the population. *)
  for i = 20 to 28 do
    Transport.set_up transport i false
  done;
  Engine.run ~until:80.0 engine;
  for i = 20 to 28 do
    Transport.set_up transport i true
  done;
  (* During and after the flap several nodes may transiently believe they
     are the root; track the maximum aggregate any of them reports. *)
  let max_seen = ref 0.0 in
  for k = 0 to 120 do
    Engine.run ~until:(80.0 +. (0.5 *. float_of_int k)) engine;
    Array.iter
      (fun n ->
        match Sdims.root_value n ~query:"count" with
        | Some (v, _) -> if v > !max_seen then max_seen := v
        | None -> ())
      nodes
  done;
  Alcotest.(check bool)
    (Printf.sprintf "over-counts transiently (max %.0f > 30)" !max_seen)
    true (!max_seen > 30.5)

let tests =
  [
    Alcotest.test_case "id digits" `Quick test_id_digits;
    Alcotest.test_case "id prefix" `Quick test_id_prefix;
    Alcotest.test_case "id distance symmetric" `Quick test_id_distance_symmetric;
    Alcotest.test_case "id distance zero" `Quick test_id_distance_zero;
    Alcotest.test_case "id hashes deterministic" `Quick test_id_hash_deterministic;
    Alcotest.test_case "routing progress + unique root" `Quick test_routing_progress;
    Alcotest.test_case "routing remove" `Quick test_routing_remove;
    Alcotest.test_case "leafset bounded" `Quick test_leafset_bounded;
    Alcotest.test_case "sdims aggregates" `Quick test_sdims_aggregates;
    Alcotest.test_case "sdims probe" `Quick test_sdims_probe;
    Alcotest.test_case "sdims lease expiry" `Slow test_sdims_lease_expiry;
    Alcotest.test_case "sdims overcount on flap" `Slow test_sdims_overcount_on_flap;
  ]
