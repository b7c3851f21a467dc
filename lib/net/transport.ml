module Obs = Mortar_obs.Obs
module Engine = Mortar_sim.Engine
module Shard = Mortar_sim.Shard

let bucket_width = 1.0

(* Hosts are dense indices, so the per-host state (handler, liveness)
   lives in flat arrays rather than hash tables: the send/deliver path is
   the innermost loop of every experiment and at 10k hosts the hashing
   dominated it.

   Messages in flight live in struct-of-arrays columns ([fl_*]) indexed
   by slot, with free slots chained through [fl_dst]. Each is queued with
   {!Engine.post} as the pair (slot, [deliver]), where [deliver] is the
   one closure this instance allocates, so a send allocates nothing.

   Every instance serves the hosts of one logical shard ([create] builds
   the one shard of a single-engine world). A send whose destination
   maps to another shard is posted to the shared batches instead of
   scheduled locally. [up], [handlers], [shard_of] and [batches] are
   shared by the sibling instances of one world (indexed by host, each
   slot touched only by its owner shard), so [up] is the one liveness
   record. *)
type 'a t = {
  engine : Engine.t;
  topo : Topology.t;
  loss : float;
  rng : Mortar_util.Rng.t;
  faults : Faults.t; (* this shard's view *)
  handlers : (src:Topology.host -> 'a -> unit) option array;
  mutable observers : (src:Topology.host -> dst:Topology.host -> kind:string -> unit) array;
  up : bool array;
  shard : int;
  shard_of : int array; (* host -> logical shard *)
  batches : 'a Shard.t; (* cross-shard messages in flight *)
  by_kind : (string, Mortar_sim.Series.t) Hashtbl.t;
  (* Two-slot memo for [series_of]: steady-state traffic interleaves two
     kinds (data and heartbeat), so a single-slot cache thrashed on
     every other send. Slot 1 is the most recent miss. *)
  mutable kind_cache : (string * Mortar_sim.Series.t) option;
  mutable kind_cache2 : (string * Mortar_sim.Series.t) option;
  mutable sent : int;
  mutable delivered : int;
  mutable fl_src : int array;
  mutable fl_dst : int array; (* the next free slot while free *)
  mutable fl_kind : string array;
  mutable fl_payload : 'a array;
  mutable fl_blank : 'a option; (* what a freed payload slot is overwritten with *)
  mutable fl_free : int; (* -1 when empty *)
  deliver : int -> unit; (* [deliver_slot] on this instance *)
  inbox : 'a Shard.batch -> int -> unit; (* [schedule_delivery] of a merged message *)
}

(* A dropped message: counted under [transport.dropped.<reason>] and
   traced. *)
let[@inline] drop t ~src ~dst ~kind reason =
  if !Obs.enabled then begin
    Obs.incr ("transport.dropped." ^ reason);
    Obs.trace ~t:(Engine.now t.engine) (Obs.Tuple_drop { src; dst; kind; reason })
  end

(* Delivery-time half of [send]: runs on the destination shard's
   instance, so its counters are the ones that see the message. *)
let[@lint.hot] deliver_msg t ~src ~dst ~kind payload =
  (* Only the destination's liveness matters at delivery time: a
     datagram already in flight outlives its sender's crash. *)
  if t.up.(dst) then begin
    match t.handlers.(dst) with
    | Some f ->
      t.delivered <- t.delivered + 1;
      if !Obs.enabled then begin
        Obs.incr "transport.delivered";
        Obs.trace ~t:(Engine.now t.engine) (Obs.Tuple_recv { src; dst; kind })
      end;
      (* Indexed loop, not Array.iter: the iter callback would be a
         fresh closure allocation on every single delivery. *)
      for i = 0 to Array.length t.observers - 1 do
        t.observers.(i) ~src ~dst ~kind
      done;
      f ~src payload
    | None -> ()
  end
  else drop t ~src ~dst ~kind "down_at_delivery"

(* Free the slot before delivering: the handler may send, and its send
   may reuse the slot. Overwriting the payload keeps a delivered message
   from staying reachable (and being promoted) until the slot's reuse. *)
let[@lint.hot] deliver_slot t slot =
  let src = t.fl_src.(slot)
  and dst = t.fl_dst.(slot)
  and kind = t.fl_kind.(slot)
  and payload = t.fl_payload.(slot) in
  t.fl_dst.(slot) <- t.fl_free;
  t.fl_free <- slot;
  (match t.fl_blank with Some b -> t.fl_payload.(slot) <- b | None -> ());
  deliver_msg t ~src ~dst ~kind payload

(* Take a free in-flight slot for the message, doubling the columns (the
   payload and kind columns filled with the value being stored, which
   the first growth also keeps as the blank) when none is left. *)
let claim t ~src ~dst ~kind payload =
  if t.fl_free < 0 then begin
    if Option.is_none t.fl_blank then t.fl_blank <- Some payload;
    let cap = Array.length t.fl_src in
    let ncap = if cap = 0 then 2 else cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.fl_src <- extend t.fl_src 0;
    t.fl_dst <- extend t.fl_dst 0;
    t.fl_kind <- extend t.fl_kind kind;
    t.fl_payload <- extend t.fl_payload payload;
    for s = ncap - 1 downto cap do
      t.fl_dst.(s) <- t.fl_free;
      t.fl_free <- s
    done
  end;
  let slot = t.fl_free in
  t.fl_free <- t.fl_dst.(slot);
  t.fl_src.(slot) <- src;
  t.fl_dst.(slot) <- dst;
  t.fl_kind.(slot) <- kind;
  t.fl_payload.(slot) <- payload;
  slot

(* Queue a delivery on this instance's engine at absolute time [at].
   Inlined so [at] reaches the engine's queue unboxed. *)
let[@inline][@lint.hot] schedule_delivery t ~at ~src ~dst ~kind payload =
  ignore (Engine.post t.engine ~at t.deliver (claim t ~src ~dst ~kind payload))

(* One shard's instance; the per-host arrays and the batches are
   parameters so sibling instances share them. *)
let make engine topo ~loss ~rng ~faults ~handlers ~up ~shard ~shard_of ~batches =
  let rec t =
    {
      engine;
      topo;
      loss;
      rng;
      faults;
      handlers;
      observers = [||];
      up;
      shard;
      shard_of;
      batches;
      by_kind = Hashtbl.create 8;
      kind_cache = None;
      kind_cache2 = None;
      sent = 0;
      delivered = 0;
      fl_src = [||];
      fl_dst = [||];
      fl_kind = [||];
      fl_payload = [||];
      fl_blank = None;
      fl_free = -1;
      deliver = (fun slot -> deliver_slot t slot);
      inbox =
        (fun b pos ->
          schedule_delivery t ~at:(Shard.time b pos) ~src:(Shard.src b pos)
            ~dst:(Shard.dst b pos) ~kind:(Shard.kind b pos) (Shard.payload b pos));
    }
  in
  t

let create_sharded ~engines ~shard_of ~rngs ~faults ~batches topo ?(loss = 0.0) () =
  let n = Topology.hosts topo in
  let handlers = Array.make n None and up = Array.make n true in
  Array.mapi
    (fun shard engine ->
      make engine topo ~loss ~rng:rngs.(shard) ~faults:faults.(shard) ~handlers ~up ~shard
        ~shard_of ~batches)
    engines

(* Without [faults], a private empty table: nothing can install a
   condition on it, so it never draws from [rng]. *)
let create engine topo ?faults ~rng () =
  let n = Topology.hosts topo in
  let faults = match faults with Some f -> f | None -> Faults.create ~hosts:n ~rng () in
  (create_sharded ~engines:[| engine |] ~shard_of:(Array.make n 0) ~rngs:[| rng |]
     ~faults:[| faults |] ~batches:(Shard.create ~shards:1) topo ()).(0)

(* Schedule, in canonical order, every message other shards posted to
   this instance's shard in the previous epoch. *)
let merge_inbox t = Shard.drain t.batches ~dst_shard:t.shard t.inbox

let register t host f = t.handlers.(host) <- Some f

(* Prepend, matching the old list's newest-first observer order. *)
let on_deliver t f = t.observers <- Array.append [| f |] t.observers

let set_up t host b = t.up.(host) <- b

let is_up t host = t.up.(host)

(* The byte series of [kind], created on first use. A hit in either memo
   slot allocates nothing; a miss moves slot 1 down and fills it. *)
let series_of t ~kind =
  match (t.kind_cache, t.kind_cache2) with
  | Some (k, s), _ when String.equal k kind -> s
  | _, Some (k, s) when String.equal k kind -> s
  | slot1, _ ->
    let s =
      match Hashtbl.find_opt t.by_kind kind with
      | Some s -> s
      | None ->
        let s = Mortar_sim.Series.create ~bucket:bucket_width in
        Hashtbl.replace t.by_kind kind s;
        s
    in
    t.kind_cache2 <- slot1;
    t.kind_cache <- Some (kind, s);
    s

(* The branch structure below mirrors the old short-circuit condition
   exactly — the loss draw happens only when both endpoints are up, and
   [Faults.decide] only when the loss draw passes — so seeded replays
   consume the RNG in the same order whether or not Obs is enabled. *)
let[@lint.hot] send t ~src ~dst ~size ~kind payload =
  t.sent <- t.sent + 1;
  if not (t.up.(src) && t.up.(dst)) then drop t ~src ~dst ~kind "down"
  else if not (Float.equal t.loss 0.0 || Mortar_util.Rng.float t.rng 1.0 >= t.loss) then
    drop t ~src ~dst ~kind "loss"
  else if Faults.decide t.faults ~src ~dst then drop t ~src ~dst ~kind "fault"
  else begin
    let hops = max 1 (Topology.hops t.topo src dst) in
    Mortar_sim.Series.incr (series_of t ~kind) ~time:(Engine.now t.engine)
      (float_of_int (size * hops));
    if !Obs.enabled then begin
      Obs.incr ("transport.sent." ^ kind);
      Obs.trace
        ~t:(Engine.now t.engine)
        (Obs.Tuple_send { src; dst; kind; size })
    end;
    let delay = Topology.latency t.topo src dst in
    let dst_shard = t.shard_of.(dst) in
    if dst_shard <> t.shard then
      (* Cross-shard: post the message to the shared batches rather
         than this engine. The lookahead bound guarantees the delivery
         time is still in the destination shard's future, and the merge
         gives it a canonical total order. *)
      Shard.post t.batches ~src_shard:t.shard ~dst_shard ~time:(Engine.now t.engine +. delay)
        ~src ~dst ~kind payload
    else
      let delay = if delay < 0.0 then 0.0 else delay in
      schedule_delivery t ~at:(Engine.now t.engine +. delay) ~src ~dst ~kind payload
  end

let bytes_series t ~kind = Hashtbl.find_opt t.by_kind kind

let total_bytes_of_kind t ~kind =
  match Hashtbl.find_opt t.by_kind kind with
  | None -> 0.0
  | Some s ->
    List.fold_left ( +. ) 0.0 (Mortar_sim.Series.rows s)

let kinds t = Hashtbl.fold (fun k _ acc -> k :: acc) t.by_kind [] |> List.sort compare

let total_bytes t =
  List.fold_left (fun acc k -> acc +. total_bytes_of_kind t ~kind:k) 0.0 (kinds t)

let messages_sent t = t.sent

let messages_delivered t = t.delivered
