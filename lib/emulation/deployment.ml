module Engine = Mortar_sim.Engine
module Clock = Mortar_sim.Clock
module Shard = Mortar_sim.Shard
module Series = Mortar_sim.Series
module Topology = Mortar_net.Topology
module Transport = Mortar_net.Transport
module Faults = Mortar_net.Faults
module Peer = Mortar_core.Peer
module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs
module Par = Mortar_par.Par

(* One logical shard: a populated stub domain of the topology, with its
   own event engine, transport instance and private Obs registry (the
   one its slices write to during [run_until]). *)
type shard = {
  engine : Engine.t;
  transport : Mortar_core.Msg.payload Transport.t;
  reg : Obs.Reg.t;
}

(* Periodic sensors as columns, one row per attached sensor: a tick is
   posted to the host's shard engine as (row, [tick]), where [tick] is
   the one function the deployment allocates for all of them, so a tick
   allocates no closure. *)
type sensors = {
  mutable node : int array;
  mutable stream : string array;
  mutable period : float array;
  mutable jitter : float array;
  mutable truth_slide : float array; (* [nan]: no ground-truth slot *)
  mutable value : (int -> Mortar_core.Value.t) array;
  mutable ticks : int array; (* readings injected so far *)
  mutable jrng : Rng.t array; (* the row's jitter stream *)
  mutable rows : int;
}

type t = {
  engine : Engine.t; (* control engine: fault windows, [at] callbacks *)
  topo : Topology.t;
  faults : Faults.t;
  clocks : Clock.t array;
  peers : Peer.t array;
  rng : Rng.t;
  mutable vivaldi : Mortar_coords.Vivaldi.system option;
  shards : shard array;
  batches : Mortar_core.Msg.payload Shard.t; (* cross-shard messages in flight *)
  lookahead : float; (* min cross-stub latency; infinity when <= 1 stub *)
  domains : int; (* execution width; never affects output *)
  shard_of : int array; (* host -> logical shard *)
  (* Control-thread Obs writes during [run_until], kept apart from
     [Obs.default] so each flush only merge-sorts the events of that run
     (the default trace stays untouched and already ordered). *)
  ctl_reg : Obs.Reg.t;
  (* Peer counts already in [Obs.default], host-major by [Peer.counters];
     allocated by the first enabled flush. *)
  mutable exported : int array;
  sensors : sensors;
  tick : int -> unit; (* fires sensor row [i] *)
  crash_windows : int array; (* per host: crash windows open now *)
}

let default_domains = ref 1

(* One runtime per shard, shared by its hosts. Its operator cache is
   the shard's own, so installs in parallel slices never share it. *)
let make_runtime ~engine ~transport ~topo ~clocks : Peer.runtime =
  let ops = Hashtbl.create 8 in
  {
    Peer.send = Transport.send transport;
    local_time = (fun h -> Clock.local_time clocks.(h) ~now:(Engine.now engine));
    latency = Topology.latency topo;
    set_timer =
      (fun h ~after f ->
        (* [after] is local seconds; a fast clock (positive skew) fires its
           timers early in true time. A negative delay lands on now
           through [post]'s clamp. *)
        let after = after /. (1.0 +. Clock.skew clocks.(h)) in
        Engine.post engine ~at:(Engine.now engine +. after) f h);
    cancel_timer = Engine.cancel engine;
    compile =
      (fun spec ->
        match Hashtbl.find_opt ops spec with
        | Some impl -> impl
        | None ->
          let impl = Mortar_core.Op.compile spec in
          Hashtbl.add ops spec impl;
          impl);
  }

let sensor_rows () =
  { node = [||]; stream = [||]; period = [||]; jitter = [||]; truth_slide = [||]; value = [||];
    ticks = [||]; jrng = [||]; rows = 0 }

let sensor_tick ~engine_of ~peers (s : sensors) =
  let rec tick i =
    let node = s.node.(i) in
    let engine = engine_of node in
    let k = s.ticks.(i) in
    s.ticks.(i) <- k + 1;
    let slide = s.truth_slide.(i) in
    let true_slot =
      if Float.is_nan slide then None
      else Some (Mortar_core.Index.slot ~slide (Engine.now engine))
    in
    Peer.inject peers.(node) ~stream:s.stream.(i) ?true_slot (s.value.(i) k);
    let jitter = s.jitter.(i) in
    let delay =
      s.period.(i) +. if jitter > 0.0 then Rng.uniform s.jrng.(i) (-.jitter) jitter else 0.0
    in
    ignore (Engine.post engine ~at:(Engine.now engine +. max 0.001 delay) tick i)
  in
  tick

let create_sharded ?(seed = 42) ?(config = Peer.default_config) ?(loss = 0.0) ?offsets ?skews
    ?domains topo =
  let domains =
    max 1 (match domains with Some d -> d | None -> !default_domains)
  in
  let n = Topology.hosts topo in
  let nshards = Topology.stub_count topo in
  let lookahead = Topology.lookahead topo in
  let shard_of = Array.init n (fun h -> Topology.stub_of topo h) in
  (* RNG derivation: one split for the transport root, then per-peer
     splits in host order. The transport root is re-split per shard (the
     loss stream must be private to the deciding domain); with the
     default [loss = 0.] no transport randomness is ever drawn. *)
  let rng = Rng.create seed in
  let engine = Engine.create () in
  let engines = Array.init nshards (fun _ -> Engine.create ()) in
  let t_root = Rng.split rng in
  let t_rngs = Array.init nshards (fun _ -> Rng.split t_root) in
  let batches = Shard.create ~shards:nshards in
  (* The fault table gets its own root stream, so attaching faults never
     shifts the transport/peer/planner streams of a seeded run. The root
     table only installs and heals conditions; each shard decides through
     a private view. *)
  let fmaster = Rng.create (seed lxor 0x5f3759df) in
  let faults = Faults.create ~hosts:n ~rng:fmaster () in
  let views = Array.init nshards (fun _ -> Faults.shard_view faults ~rng:(Rng.split fmaster)) in
  let transports =
    Transport.create_sharded ~engines ~shard_of ~rngs:t_rngs ~faults:views ~batches topo ~loss ()
  in
  let get arr i = match arr with Some a -> a.(i) | None -> 0.0 in
  let clocks =
    Array.init n (fun i -> Clock.create ~offset:(get offsets i) ~skew:(get skews i) ())
  in
  let runtimes =
    Array.init nshards (fun s ->
        make_runtime ~engine:engines.(s) ~transport:transports.(s) ~topo ~clocks)
  in
  let peers =
    Array.init n (fun i -> Peer.create ~config runtimes.(shard_of.(i)) ~self:i ~rng:(Rng.split rng))
  in
  Array.iteri
    (fun i peer ->
      Transport.register transports.(shard_of.(i)) i (fun ~src m -> Peer.receive peer ~src m))
    peers;
  let shards =
    Array.init nshards (fun s ->
        { engine = engines.(s); transport = transports.(s); reg = Obs.Reg.create () })
  in
  let sensors = sensor_rows () in
  { engine; topo; faults; clocks; peers; rng; vivaldi = None; shards; batches; lookahead;
    domains; shard_of; ctl_reg = Obs.Reg.create (); exported = [||]; sensors;
    crash_windows = Array.make n 0;
    tick = sensor_tick ~engine_of:(fun h -> engines.(shard_of.(h))) ~peers sensors }

let topology t = t.topo

let hosts t = Topology.hosts t.topo

let peer t i = t.peers.(i)

let rng t = t.rng

(* Inside a shard's event slice, "now" is that shard's clock — peer
   callbacks (e.g. the harness result hooks) read coherent local time;
   everywhere else it is the control engine's. *)
let now t =
  match Par.Ctx.get () with
  | Some sid -> Engine.now t.shards.(sid).engine
  | None -> Engine.now t.engine

(* ------------------------------------------------------------------ *)
(* The conservative epoch loop.

   Invariant: a cross-shard message sent at time E is delivered at
   E + latency >= E + lookahead. So with [ns] = the earliest pending
   shard event (queued, or posted last epoch and not merged yet) and
   [nc] = the control engine's earliest event, every shard may run all
   events strictly before

       bound = min (ns + lookahead) nc

   without ever receiving a message in its past: anything a peer sends
   during the epoch lands at >= ns + lookahead >= bound. Control
   events (fault windows, crash scripts, experiment [at]-callbacks)
   mutate peer and liveness state directly, so shards never run past
   one: control fires inclusively at the barrier, between epochs, on
   the caller's thread.

   Cross-shard messages posted in epoch k (and by control events at the
   barrier before it) sit in batch set k mod 2 ({!Shard}). At the
   barrier the sets flip, and each destination merges set k mod 2 into
   its engine at the start of its epoch-(k+1) slice, in parallel, while
   the sources post to the other set. Nothing else schedules on a shard
   engine between the barrier and that slice, so each message gets the
   same engine sequence number as if it had been merged at the barrier.
   Two barriers still merge serially, before anything else runs: one at
   which control events fire (they may schedule on shard engines
   directly), and the last one of [run_until] (the caller may, before
   the next call).

   The epoch structure depends only on event times and the topology's
   lookahead — never on [domains] — which is what makes `--domains N`
   byte-identical to `--domains 1`. *)

let min_next_shard t =
  Array.fold_left
    (fun acc (s : shard) -> Float.min acc (Engine.next_time s.engine))
    (Shard.pending_min t.batches) t.shards

let merge_serially t = Array.iter (fun s -> Transport.merge_inbox s.transport) t.shards

(* Run [f] over every shard, possibly on several domains. The pool sets
   the domain-local context to the shard's index around each slice, so
   Obs writes and [now] resolve to the right stream, and re-raises a
   slice's exception on this thread after its barrier. Each shard first
   merges its pending cross-shard messages. The pool barrier gives the
   control thread a happens-before edge over every shard mutation. *)
let par_shards shards pool f =
  Par.Pool.run pool ~n:(Array.length shards) (fun i ->
      (* lint: allow D7 worker i only touches shards.(i); its merge reads only the pending batch set, which no source posts to until the next flip at the barrier *)
      let s = shards.(i) in
      Transport.merge_inbox s.transport;
      f s)

(* Fold the per-shard (and control) Obs registries into the default one
   at the end of a run: counters and histograms add (order-insensitive),
   and the traces — each chronological — are merged by the canonical
   (time, shard, emission index) order, control first on ties, then
   appended to the default trace. Events of successive runs never
   interleave (a run's events are all stamped at or after the previous
   run's target), so sorting one run's worth keeps the whole trace
   ordered without ever re-touching it. Deterministic in the shard
   partition, never in the domain count.

   Peers count into their own always-live tables; the flush adds what
   each count gained since the previous flush under the host's [Node]
   scope, skipping zeros so a counter that never moved has no line. *)
let export_counts t =
  let k = Array.length Peer.counters in
  if Array.length t.exported = 0 then t.exported <- Array.make (k * Array.length t.peers) 0;
  Array.iteri
    (fun h p ->
      Array.iteri
        (fun i c ->
          let v = Peer.count p c in
          let gained = v - t.exported.((h * k) + i) in
          if gained <> 0 then begin
            Obs.Reg.incr Obs.default ~scope:(Obs.Node h) ~by:gained (Peer.counter_name c);
            t.exported.((h * k) + i) <- v
          end)
        Peer.counters)
    t.peers

let flush_obs t =
  if !Obs.enabled then begin
    export_counts t;
    let tagged = ref [] in
    List.iteri
      (fun i (time, ev) -> tagged := (time, -1, i, ev) :: !tagged)
      (Obs.Reg.drain_trace t.ctl_reg);
    Array.iteri
      (fun s sh ->
        List.iteri (fun i (time, ev) -> tagged := (time, s, i, ev) :: !tagged)
          (Obs.Reg.drain_trace sh.reg))
      t.shards;
    let sorted =
      List.sort
        (fun (t1, s1, i1, _) (t2, s2, i2, _) ->
          let c = Float.compare t1 t2 in
          if c <> 0 then c
          else
            let c = compare s1 s2 in
            if c <> 0 then c else compare i1 i2)
        !tagged
    in
    List.iter (fun (time, _, _, ev) -> Obs.Reg.trace Obs.default ~t:time ev) sorted;
    Obs.Reg.fold_into ~into:Obs.default t.ctl_reg;
    Array.iter (fun s -> Obs.Reg.fold_into ~into:Obs.default s.reg) t.shards
  end

(* Obs writes during the run go to the writing shard's registry from
   inside its slice, and to [ctl_reg] from the control thread; the sink
   is this run's alone, so another deployment built in the same process
   never receives them. *)
let run_until t target =
  let pool = Par.Pool.create ~domains:(min t.domains (Array.length t.shards)) in
  let sink () = match Par.Ctx.get () with Some s -> t.shards.(s).reg | None -> t.ctl_reg in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      Obs.with_sink sink @@ fun () ->
      let continue_ = ref true in
      while !continue_ do
        let ns = min_next_shard t in
        let nc = Engine.next_time t.engine in
        if Float.min ns nc > target then begin
          (* Nothing left at or before [target]: advance every clock. *)
          par_shards t.shards pool (fun s -> Engine.run ~until:target s.engine);
          Engine.run ~until:target t.engine;
          continue_ := false
        end
        else begin
          let bound = Float.min (ns +. t.lookahead) nc in
          if bound > target then begin
            (* The whole remaining window fits in one epoch: every event
               at or before [target] precedes [bound], and anything sent
               lands past [target]. Finish inclusively. *)
            par_shards t.shards pool (fun s -> Engine.run ~until:target s.engine);
            Shard.flip t.batches;
            merge_serially t;
            Engine.run ~until:target t.engine;
            continue_ := false
          end
          else begin
            par_shards t.shards pool (fun s -> Engine.run_before s.engine bound);
            Shard.flip t.batches;
            if nc <= bound then merge_serially t;
            (* Fires control events at exactly [bound] (if [nc = bound])
               and keeps the control clock abreast of the shards. *)
            Engine.run ~until:bound t.engine
          end
        end
      done);
  flush_obs t

let census t =
  let per_host = Array.map Peer.census_parts t.peers in
  let label_roots label =
    Array.fold_right
      (fun parts acc -> List.assoc label parts @ acc)
      per_host []
  in
  let peer_rows =
    if Array.length per_host = 0 then []
    else List.map (fun (label, _) -> (label, label_roots label)) per_host.(0)
  in
  let handlers, peer_rows = List.partition (fun (l, _) -> l = "result handlers") peer_rows in
  let shards f = Array.to_list (Array.map (fun s -> Obj.repr (f s)) t.shards) in
  Mortar_util.Census.measure
    (peer_rows
    @ [ ("shard batches", [ Obj.repr t.batches ]);
        ("transport", shards (fun s -> s.transport));
        ("engines (slab, queues, queued closures)",
         Obj.repr t.engine :: shards (fun (s : shard) -> s.engine));
        ("clocks", [ Obj.repr t.clocks ]);
        ("topology", [ Obj.repr t.topo ]) ]
    @ handlers
    @ [ ("deployment rest", [ Obj.repr t ]) ])

let at t time f = ignore (Engine.post t.engine ~at:time (fun _ -> f ()) 0)

let shard_count t = Array.length t.shards

let lookahead t = t.lookahead

let shard_of_host t i = t.shards.(t.shard_of.(i))

(* Aggregate transport accessors: the per-shard instances each hold
   their own counters and bandwidth series, so the deployment-level
   totals sum (or bucket-merge) across them. *)

let fold_transports t f acc = Array.fold_left (fun acc s -> f acc s.transport) acc t.shards

(* Deliveries (including drained cross-shard ones) run on the
   destination's instance, so the observer goes on every one. With
   [domains > 1] it fires concurrently from several domains — keep
   observers effect-free or confine them to one host's traffic. *)
let on_deliver t f = Array.iter (fun s -> Transport.on_deliver s.transport f) t.shards

let messages_sent t = fold_transports t (fun acc tr -> acc + Transport.messages_sent tr) 0

let messages_delivered t =
  fold_transports t (fun acc tr -> acc + Transport.messages_delivered tr) 0

let events_fired t =
  Array.fold_left
    (fun acc (s : shard) -> acc + Engine.fired s.engine)
    (Engine.fired t.engine) t.shards

let total_bytes t = fold_transports t (fun acc tr -> acc +. Transport.total_bytes tr) 0.0

let kinds t =
  fold_transports t (fun acc tr -> List.rev_append (Transport.kinds tr) acc) []
  |> List.sort_uniq compare

let bytes_series t ~kind =
  fold_transports t
    (fun acc tr ->
      match Transport.bytes_series tr ~kind with
      | None -> acc
      | Some src ->
        let dst =
          match acc with Some d -> d | None -> Series.create ~bucket:Transport.bucket_width
        in
        Series.merge_into ~dst src;
        Some dst)
    None

(* Liveness is one array shared by every shard's instance; the host's
   own shard instance reads and writes it. *)
let is_up t node = Transport.is_up (shard_of_host t node).transport node

let set_up t node up =
  if !Obs.enabled && is_up t node <> up then
    Obs.trace ~t:(Engine.now t.engine)
      (if up then Obs.Node_up { node } else Obs.Node_down { node });
  Transport.set_up (shard_of_host t node).transport node up

let up_hosts t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (if is_up t i then i :: acc else acc) in
  loop (hosts t - 1) []

let fail_random t ~fraction =
  let n = hosts t in
  let candidates = Array.init (n - 1) (fun i -> i + 1) in
  let k = int_of_float (fraction *. float_of_int n) in
  let k = min k (Array.length candidates) in
  let victims = Rng.sample t.rng candidates k in
  Array.iter (fun v -> set_up t v false) victims;
  Array.to_list victims

let reconnect_all t =
  for i = 0 to hosts t - 1 do
    set_up t i true
  done

(* ------------------------------------------------------------------ *)
(* Scripted fault scenarios. *)

let faults t = t.faults

let stub_hosts t stub =
  let rec loop i acc =
    if i < 0 then acc
    else loop (i - 1) (if Topology.stub_of t.topo i = stub then i :: acc else acc)
  in
  loop (hosts t - 1) []

let all_hosts t = List.init (hosts t) Fun.id

let complement t members =
  let inside = Hashtbl.create (List.length members) in
  List.iter (fun h -> Hashtbl.replace inside h ()) members;
  List.filter (fun h -> not (Hashtbl.mem inside h)) (all_hosts t)

type fault_event =
  | Partition_stub of { stub : int; from : float; until : float }
  | Bursty_loss of {
      src : int list;
      dst : int list;
      p_enter : float;
      p_exit : float;
      loss_bad : float;
      loss_good : float;
      from : float;
      until : float;
    }
  | Crash_recover of { node : int; at : float; recover_at : float }
  | Correlated_crash of { stub : int; fraction : float; at : float; recover_at : float }

(* Install a link condition at [from] and heal it at [until]. *)
let windowed t ~desc ~from ~until install =
  let id = ref None in
  at t from (fun () ->
      if !Obs.enabled then Obs.trace ~t:(now t) (Obs.Fault_start { fault = desc });
      id := Some (install ()));
  at t until (fun () ->
      if !Obs.enabled then Obs.trace ~t:(now t) (Obs.Fault_stop { fault = desc });
      Option.iter (Faults.clear t.faults) !id)

(* A crashed host is down: at [at] its process stops and loses all
   in-memory state (Peer.crash); at [recover_at] it restarts empty and
   reconciliation has to re-install its queries. [victims] is evaluated
   when the crash fires. Windows of one host may overlap (independent
   churn draws, a correlated kill of a stub): the host is down while any
   of them is open, so it crashes when the first opens and restarts when
   the last closes. *)
let crash_window t ~victims ~at:down_at ~recover_at =
  let open_ = t.crash_windows in
  at t down_at (fun () ->
      let nodes = victims () in
      List.iter
        (fun v ->
          open_.(v) <- open_.(v) + 1;
          if open_.(v) = 1 then begin
            Peer.crash t.peers.(v);
            set_up t v false
          end)
        nodes;
      at t recover_at (fun () ->
          List.iter
            (fun v ->
              open_.(v) <- open_.(v) - 1;
              if open_.(v) = 0 then begin
                Peer.restart t.peers.(v);
                set_up t v true
              end)
            nodes))

let schedule_fault t = function
  | Partition_stub { stub; from; until } ->
    windowed t
      ~desc:(Printf.sprintf "partition_stub:%d" stub)
      ~from ~until
      (fun () -> Faults.isolate t.faults (stub_hosts t stub))
  | Bursty_loss { src; dst; p_enter; p_exit; loss_bad; loss_good; from; until } ->
    windowed t ~desc:"bursty_loss" ~from ~until (fun () ->
        Faults.bursty t.faults ~loss_good ~src ~dst ~p_enter ~p_exit ~loss_bad ())
  | Crash_recover { node; at; recover_at } ->
    crash_window t ~victims:(fun () -> [ node ]) ~at ~recover_at
  | Correlated_crash { stub; fraction; at; recover_at } ->
    (* Victims are drawn when the fault fires, from the deployment RNG,
       so the draw is deterministic in the event schedule. *)
    crash_window t ~at ~recover_at ~victims:(fun () ->
        let candidates = Array.of_list (stub_hosts t stub) in
        let k = int_of_float (ceil (fraction *. float_of_int (Array.length candidates))) in
        let k = min k (Array.length candidates) in
        Array.to_list (Rng.sample t.rng candidates k))

let schedule_faults t events = List.iter (schedule_fault t) events

(* A composed chaos schedule for soak runs: steady background churn
   (independent crash/recover pairs), periodic Gilbert-Elliott loss
   windows on a random stub's uplink, and periodic correlated kills of a
   random fraction of one stub. Everything is drawn up front from the
   caller's [rng] — the deployment RNG is untouched, so attaching the
   schedule never perturbs planning or sensor phases — and the returned
   list is a plain value the caller can inspect, replay or log. *)
let composed_churn t ~rng ~from ~until ~protect ~churn_period ~churn_kills ~down_min ~down_max
    ~burst_period ~burst_len ~kill_period ~kill_fraction ~kill_len () =
  let pool =
    List.filter (fun h -> not (List.mem h protect)) (all_hosts t) |> Array.of_list
  in
  if Array.length pool = 0 then []
  else begin
    let stubs =
      List.sort_uniq compare (List.map (fun h -> Topology.stub_of t.topo h) (all_hosts t))
    in
    (* Correlated kills draw victims blindly at fire time, so only stubs
       containing no protected host (e.g. the query root) are eligible. *)
    let kill_stubs =
      List.filter
        (fun s -> not (List.exists (fun p -> Topology.stub_of t.topo p = s) protect))
        stubs
      |> Array.of_list
    in
    let stubs = Array.of_list stubs in
    let events = ref [] in
    let push e = events := e :: !events in
    let tm = ref (from +. churn_period) in
    while !tm < until do
      for _ = 1 to churn_kills do
        let v = pool.(Rng.int rng (Array.length pool)) in
        let dur = Rng.uniform rng down_min down_max in
        push (Crash_recover { node = v; at = !tm; recover_at = min until (!tm +. dur) })
      done;
      tm := !tm +. churn_period
    done;
    if Array.length stubs > 0 then begin
      let tm = ref (from +. burst_period) in
      while !tm < until do
        let src = stub_hosts t (Rng.pick rng stubs) in
        push
          (Bursty_loss
             {
               src;
               dst = complement t src;
               p_enter = 0.15;
               p_exit = 0.25;
               loss_bad = 0.7;
               loss_good = 0.01;
               from = !tm;
               until = min until (!tm +. burst_len);
             });
        tm := !tm +. burst_period
      done
    end;
    if Array.length kill_stubs > 0 then begin
      let tm = ref (from +. kill_period) in
      while !tm < until do
        push
          (Correlated_crash
             {
               stub = Rng.pick rng kill_stubs;
               fraction = kill_fraction;
               at = !tm;
               recover_at = min until (!tm +. kill_len);
             });
        tm := !tm +. kill_period
      done
    end;
    List.rev !events
  end

(* Vivaldi rounds before planning (the paper runs "at least ten", §7.3)
   and peers sampled per host per round. *)
let vivaldi_rounds = 12

let vivaldi_samples = 8

let converge_coordinates t () =
  let system = Mortar_coords.Vivaldi.create t.topo ~rng:(Rng.split t.rng) () in
  Mortar_coords.Vivaldi.converge system ~rounds:vivaldi_rounds ~samples:vivaldi_samples;
  t.vivaldi <- Some system

let coordinates t =
  match t.vivaldi with
  | Some s -> Mortar_coords.Vivaldi.coordinates s
  | None -> invalid_arg "Deployment.coordinates: call converge_coordinates first"

let plan t ?style ?(bf = 16) ?(d = 4) ~root ~nodes () =
  let coords = coordinates t in
  Mortar_overlay.Treeset.plan ?style t.rng ~coords ~bf ~d ~root ~nodes

let plan_random t ?(bf = 16) ?(d = 4) ~root ~nodes () =
  Mortar_overlay.Treeset.random t.rng ~bf ~d ~root ~nodes

let inject t ~node ~stream value =
  Peer.inject t.peers.(node) ~stream value

let sensor t ~node ~stream ~period ?(jitter = 0.0) ?truth_slide value =
  assert (period > 0.0);
  (* Ticks run on the node's shard engine, so jitter draws would race on
     the deployment RNG across domains: a jittered sensor splits a
     private stream up front (sequential, so it is a pure function of the
     attachment order, not of the domain count). *)
  let engine = (shard_of_host t node).engine in
  let jrng = if jitter > 0.0 then Rng.split t.rng else t.rng in
  let phase = Rng.float t.rng period in
  let s = t.sensors in
  let i = s.rows in
  if i = Array.length s.node then begin
    let cap = max 16 (2 * i) in
    let grow a fill = Array.init cap (fun j -> if j < i then a.(j) else fill) in
    s.node <- grow s.node 0;
    s.stream <- grow s.stream "";
    s.period <- grow s.period 0.0;
    s.jitter <- grow s.jitter 0.0;
    s.truth_slide <- grow s.truth_slide nan;
    s.value <- grow s.value value;
    s.ticks <- grow s.ticks 0;
    s.jrng <- grow s.jrng jrng
  end;
  s.node.(i) <- node;
  s.stream.(i) <- stream;
  s.period.(i) <- period;
  s.jitter.(i) <- jitter;
  s.truth_slide.(i) <- Option.value truth_slide ~default:nan;
  s.value.(i) <- value;
  s.ticks.(i) <- 0;
  s.jrng.(i) <- jrng;
  s.rows <- i + 1;
  ignore (Engine.post engine ~at:(Engine.now engine +. phase) t.tick i)
