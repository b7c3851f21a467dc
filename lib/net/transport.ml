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
   one closure this instance allocates, so a send allocates nothing. *)
type 'a t = {
  engine : Engine.t;
  topo : Topology.t;
  loss : float;
  rng : Mortar_util.Rng.t;
  mutable faults : Faults.t option;
  handlers : (src:Topology.host -> 'a -> unit) option array;
  mutable observers : (src:Topology.host -> dst:Topology.host -> kind:string -> unit) array;
  up : bool array;
  mutable up_alive : int; (* invariant: number of [true] slots in [up] *)
  by_kind : (string, Mortar_sim.Series.t) Hashtbl.t;
  (* Two-slot memo for [series_of]: steady-state traffic interleaves two
     kinds (data and heartbeat), so a single-slot cache thrashed on
     every other send. Slot 1 is the most recent miss. *)
  mutable kind_cache : (string * Mortar_sim.Series.t) option;
  mutable kind_cache2 : (string * Mortar_sim.Series.t) option;
  mutable sent : int;
  mutable delivered : int;
  remote : 'a cross option; (* [None]: a standalone instance *)
  mutable fl_src : int array;
  mutable fl_dst : int array; (* the next free slot while free *)
  mutable fl_kind : string array;
  mutable fl_payload : 'a array;
  mutable fl_blank : 'a option; (* what a freed payload slot is overwritten with *)
  mutable fl_free : int; (* -1 when empty *)
  deliver : int -> unit; (* [deliver_slot] on this instance *)
  inbox : 'a Shard.batch -> int -> unit; (* [schedule_delivery] of a merged message *)
}

(* A sharded instance serves the hosts of one logical shard. A send whose
   destination maps to another shard is posted to the shared batches
   instead of scheduled locally; [up]/[handlers] are shared across all
   sibling instances (indexed by host, each slot touched only by its
   owner shard). *)
and 'a cross = {
  shard : int;
  shard_of : Topology.host -> int;
  batches : 'a Shard.t;
}

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
  else if !Obs.enabled then begin
    Obs.incr "transport.dropped.down_at_delivery";
    Obs.trace
      ~t:(Engine.now t.engine)
      (Obs.Tuple_drop { src; dst; kind; reason = "down_at_delivery" })
  end

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
  Engine.post t.engine ~at t.deliver (claim t ~src ~dst ~kind payload)

(* Both constructors build through here. The per-host arrays are
   parameters so sibling shard instances share them without allocating
   throwaway copies. *)
let make engine topo ~loss ~rng ~faults ~handlers ~up ~remote =
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
      (* On sharded instances meaningful only on instance 0: the
         deployment routes every [set_up] through it. *)
      up_alive = Array.length up;
      by_kind = Hashtbl.create 8;
      kind_cache = None;
      kind_cache2 = None;
      sent = 0;
      delivered = 0;
      remote;
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

let create engine topo ?faults ~rng () =
  let n = Topology.hosts topo in
  make engine topo ~loss:0.0 ~rng ~faults ~handlers:(Array.make n None) ~up:(Array.make n true)
    ~remote:None

let create_sharded ~engines ~shard_of ~rngs ~batches topo ?(loss = 0.0) () =
  let n = Topology.hosts topo in
  let handlers = Array.make n None and up = Array.make n true in
  Array.mapi
    (fun shard engine ->
      make engine topo ~loss ~rng:rngs.(shard) ~faults:None ~handlers ~up
        ~remote:(Some { shard; shard_of; batches }))
    engines

(* Schedule, in canonical order, every message other shards posted to
   this instance's shard in the previous epoch. *)
let merge_inbox t =
  match t.remote with
  | Some r -> Shard.drain r.batches ~dst_shard:r.shard t.inbox
  | None -> ()

let register t host f = t.handlers.(host) <- Some f

(* Prepend, matching the old list's newest-first observer order. *)
let on_deliver t f = t.observers <- Array.append [| f |] t.observers

let set_faults t faults = t.faults <- Some faults

let set_up t host b =
  if t.up.(host) <> b then begin
    t.up.(host) <- b;
    t.up_alive <- (if b then t.up_alive + 1 else t.up_alive - 1)
  end

let is_up t host = t.up.(host)

let up_count t = t.up_alive

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
  if not (t.up.(src) && t.up.(dst)) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.down";
      Obs.trace
        ~t:(Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind; reason = "down" })
    end
  end
  else if not (Float.equal t.loss 0.0 || Mortar_util.Rng.float t.rng 1.0 >= t.loss) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.loss";
      Obs.trace
        ~t:(Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind; reason = "loss" })
    end
  end
  else if (match t.faults with None -> false | Some f -> Faults.decide f ~src ~dst) then begin
    if !Obs.enabled then begin
      Obs.incr "transport.dropped.fault";
      Obs.trace
        ~t:(Engine.now t.engine)
        (Obs.Tuple_drop { src; dst; kind; reason = "fault" })
    end
  end
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
    match t.remote with
    | Some r when r.shard_of dst <> r.shard ->
      (* Cross-shard: post the message to the shared batches rather
         than this engine. The lookahead bound guarantees the delivery
         time is still in the destination shard's future, and the merge
         gives it a canonical total order. *)
      Shard.post r.batches ~src_shard:r.shard ~dst_shard:(r.shard_of dst)
        ~time:(Engine.now t.engine +. delay) ~src ~dst ~kind payload
    | _ ->
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
