(** Best-effort datagram transport over a simulated topology.

    Models the role UdpCC played in the Mortar prototype: unreliable,
    unordered datagrams. Delivery takes the one-way latency from the
    topology; a message is dropped if either endpoint is down at send
    time, or if the {e destination} is down at delivery time — an
    in-flight datagram outlives its sender's crash, as a real packet
    would. An optional uniform loss rate (on sharded instances) models
    residual packet loss, and an attached {!Faults} table adds
    link-level cuts and bursty loss per (src, dst) pair.

    Bandwidth accounting follows the paper's "total network load" metric:
    each delivered-or-dropped-in-flight message contributes
    [size * physical hops] bytes, bucketed by virtual time (one
    {!bucket_width} per bucket) and by a caller-supplied traffic kind
    (e.g. ["data"], ["heartbeat"], ["control"]) so that experiments can
    report overhead splits (Fig 14). *)

type 'a t
(** A transport carrying payloads of type ['a]. *)

val bucket_width : float
(** Width in virtual seconds of every bandwidth-series bucket ([1.]). *)

val create :
  Mortar_sim.Engine.t -> Topology.t -> ?faults:Faults.t -> rng:Mortar_util.Rng.t -> unit -> 'a t
(** A lossless single-engine transport; [faults] attaches a fault table
    consulted on every send. *)

val create_sharded :
  engines:Mortar_sim.Engine.t array ->
  shard_of:(Topology.host -> int) ->
  rngs:Mortar_util.Rng.t array ->
  batches:'a Mortar_sim.Shard.t ->
  Topology.t ->
  ?loss:float ->
  unit ->
  'a t array
(** [loss] is a per-message drop probability (default [0.]). One
    transport instance per logical shard, sharing a single
    liveness/handler store (indexed by host; each slot is only ever
    touched from its owner shard's domain, or from the control thread at
    an epoch barrier). Instance [s] runs on
    [engines.(s)] and draws from [rngs.(s)]; a message that survives the
    send-side checks (liveness, loss, faults, accounting) and whose
    destination lives on another shard is posted to [batches] with its
    absolute delivery time instead of being scheduled locally, and
    {!merge_inbox} on the destination's instance schedules it. Route
    every {!set_up} through instance [0] so its {!up_count} tracks the
    shared array; {!register} on the owning instance. Fault tables are
    attached per instance ({!Faults.shard_view}). *)

val merge_inbox : _ t -> unit
(** Schedule on this instance's engine, in the canonical
    (time, src_shard, seq) order, every message the other shards posted
    to its shard before the last {!Mortar_sim.Shard.flip}, and clear
    them ({!Mortar_sim.Shard.drain}). A no-op on a standalone
    instance. *)

val register : 'a t -> Topology.host -> (src:Topology.host -> 'a -> unit) -> unit
(** Install the delivery handler for a host; replaces any previous one. *)

val on_deliver :
  'a t -> (src:Topology.host -> dst:Topology.host -> kind:string -> unit) -> unit
(** Add a delivery observer, called for every delivered message —
    measurement only (tests assert e.g. that no message crosses an
    active partition). *)

val set_faults : _ t -> Faults.t -> unit
(** Attach (or replace) the fault table. *)

val send :
  'a t ->
  src:Topology.host ->
  dst:Topology.host ->
  size:int ->
  kind:string ->
  'a ->
  unit
(** Fire-and-forget send of [size] bytes. [kind] tags bandwidth accounting.
    The fault table, if any, is consulted once per
    send. Sending to self delivers after a zero-latency hop on the next
    event. *)

val set_up : _ t -> Topology.host -> bool -> unit
(** Mark a host reachable/unreachable. Messages in flight towards a host
    that goes down are lost; messages in flight {e from} it are not. *)

val is_up : _ t -> Topology.host -> bool
(** Hosts start up. *)

val up_count : _ t -> int

val bytes_series : _ t -> kind:string -> Mortar_sim.Series.t option
(** Link-bytes series for one traffic kind, if any traffic was sent. *)

val total_bytes : _ t -> float
(** All link-bytes since creation, across kinds. *)

val total_bytes_of_kind : _ t -> kind:string -> float (* lint: allow D11 oracle: test/test_net.ml "transport bandwidth" *)

val kinds : _ t -> string list

val messages_sent : _ t -> int

val messages_delivered : _ t -> int
