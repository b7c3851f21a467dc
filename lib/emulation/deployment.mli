(** A simulated Mortar deployment: the ModelNet testbed stand-in.

    Binds together the discrete-event engine, a topology, the datagram
    transport, per-node clocks, and one {!Mortar_core.Peer} per host. Peer
    logic sees only its local clock and the transport; everything
    time-related is translated here (skewed timers, latency estimates), so
    the peer code is identical to what would run on a real network.

    Also provides the deployment-level services the paper's evaluation
    uses: Vivaldi coordinate convergence, network-aware query planning,
    periodic sensors, and failure/churn injection. *)

type t

val create_sharded :
  ?seed:int ->
  ?config:Mortar_core.Peer.config ->
  ?loss:float ->
  ?offsets:float array ->
  ?skews:float array ->
  ?domains:int ->
  Mortar_net.Topology.t ->
  t
(** The deployment's one constructor. Hosts are partitioned into one
    logical shard per populated stub domain of the topology, each with
    its own event engine and transport instance, synchronized by a
    lookahead epoch loop ({!Mortar_net.Topology.lookahead}) with
    cross-shard messages merged before each epoch in the canonical
    (time, src_shard, seq) order. [domains] (default {!default_domains})
    sets how many OS-level domains execute shard slices — it scales
    wall-clock only; the logical decomposition, and therefore every
    metric, trace and result, is byte-identical for any [domains],
    including [1]. On OCaml 4.14 the runtime is the sequential fallback
    shim and [domains] is effectively [1].

    [offsets]/[skews] (seconds / dimensionless, indexed by host) default
    to perfectly synchronized clocks. Transport loss draws and fault
    randomness use per-shard streams, so they too are independent of
    [domains]. *)

val default_domains : int ref
(** Execution width used by {!create_sharded} when [?domains] is not
    given; the CLI's [--shards] flag sets it. Default [1]. *)

val shard_count : t -> int
(** Logical shards: populated stub domains of the topology. *)

val lookahead : t -> float
(** The epoch lookahead; [infinity] when the topology has one stub. *)

(** {1 Aggregate traffic accessors}

    Reads of the transport counters and bandwidth series, summed (or
    bucket-merged) across the per-shard transport instances. *)

val on_deliver :
  t -> (src:Mortar_net.Topology.host -> dst:Mortar_net.Topology.host -> kind:string -> unit) -> unit
(** Observe every message delivery. The observer is installed on each
    shard instance and fires on the destination shard's domain — with
    [domains > 1] keep it effect-free or confine mutation to per-host
    state. *)

val messages_sent : t -> int

val messages_delivered : t -> int

val events_fired : t -> int
(** Events executed across every engine (shards + control). *)

val total_bytes : t -> float

val kinds : t -> string list
(** Sorted, duplicate-free union across shards. *)

val bytes_series : t -> kind:string -> Mortar_sim.Series.t option
(** A fresh merged series per call. *)

val topology : t -> Mortar_net.Topology.t

val hosts : t -> int

val peer : t -> int -> Mortar_core.Peer.t

val rng : t -> Mortar_util.Rng.t
(** The deployment-level RNG (distinct from per-peer RNGs). *)

val now : t -> float
(** True simulation time. *)

val run_until : t -> float -> unit
(** Advance virtual time. *)

val at : t -> float -> (unit -> unit) -> unit
(** Schedule an action at absolute virtual time. *)

(** {1 Failure injection} *)

val set_up : t -> int -> bool -> unit
(** Connect/disconnect a host ("last-mile" link failure, §7.2). A
    disconnected host keeps its state and keeps running; a crash is a
    {!Crash_recover}. *)

val up_hosts : t -> int list

val fail_random : t -> fraction:float -> int list
(** Disconnect a uniformly random fraction of hosts (never host 0, the
    root and injector of every run); returns the failed set. *)

val reconnect_all : t -> unit

(** {1 Scripted fault scenarios}

    A declarative, deterministic fault schedule driven by the sim engine:
    the experiment lists timed {!fault_event}s up front and the deployment
    installs/heals the matching {!Mortar_net.Faults} conditions (or
    crashes peers) at the right virtual instants. All times are absolute
    virtual seconds; link conditions are active on [\[from, until)]. *)

val faults : t -> Mortar_net.Faults.t
(** The fault table the transport consults on every send. *)

val stub_hosts : t -> int -> int list
(** Hosts homed in one stub domain of the topology. *)

type fault_event =
  | Partition of { a : int list; from : float; until : float }
      (** Cut the hosts in [a] off from everyone else, both directions. *)
  | Partition_stub of { stub : int; from : float; until : float }
      (** {!Partition} of a whole stub domain: the stub loses its transit
          uplink, heals at [until]. *)
  | Link_loss of {
      src : int list;
      dst : int list;
      rate : float;
      sym : bool;
      from : float;
      until : float;
    }  (** I.i.d. loss on src→dst (and dst→src when [sym]). *)
  | Bursty_loss of {
      src : int list;
      dst : int list;
      p_enter : float;
      p_exit : float;
      loss_bad : float;
      loss_good : float;
      from : float;
      until : float;
    }  (** Gilbert–Elliott bursty loss per (src, dst) pair. *)
  | Link_jitter of {
      src : int list;
      dst : int list;
      extra : float;
      prob : float;
      from : float;
      until : float;
    }
      (** With probability [prob], uniform extra delay in [\[0, extra\]] —
          messages reorder naturally. *)
  | Crash_recover of { node : int; at : float; recover_at : float }
      (** Down means crashed: at [at] the node's process stops, its timers
          are cancelled and all in-memory state is lost
          ({!Mortar_core.Peer.crash}), and it leaves the network; at
          [recover_at] it rejoins as a fresh process
          ({!Mortar_core.Peer.restart}). *)
  | Correlated_crash of { stub : int; fraction : float; at : float; recover_at : float }
      (** {!Crash_recover} of a random [fraction] of one stub's hosts at
          once, drawn from the deployment RNG when the event fires. *)

val schedule_faults : t -> fault_event list -> unit
(** Install a scenario. May be called before or during a run; events in
    the past fire immediately. *)

val composed_churn :
  t ->
  rng:Mortar_util.Rng.t ->
  from:float ->
  until:float ->
  protect:int list ->
  churn_period:float ->
  churn_kills:int ->
  down_min:float ->
  down_max:float ->
  burst_period:float ->
  burst_len:float ->
  kill_period:float ->
  kill_fraction:float ->
  kill_len:float ->
  unit ->
  fault_event list
(** Generate (but do not install) a composed chaos schedule on
    [\[from, until)]: every [churn_period] seconds, [churn_kills] uniform
    hosts crash and recover after uniform [\[down_min, down_max)] seconds;
    every [burst_period] seconds a random stub's uplink suffers
    [burst_len] seconds of Gilbert-Elliott bursty loss; every
    [kill_period] seconds a correlated crash takes out [kill_fraction] of
    a random stub for [kill_len] seconds. All recoveries are clamped to
    [until]. Hosts in [protect] are never crashed (stubs containing them
    are exempt from correlated kills). Draws come from [rng] only, so the
    schedule is a pure function of [(topology, rng, parameters)] — the
    deployment RNG streams are untouched. Pass the result to
    {!schedule_faults}. *)

(** {1 Planning} *)

val converge_coordinates : t -> unit -> unit
(** Run 12 rounds of Vivaldi (§3.1), 8 samples per host each; must be
    called before {!plan}. *)

val coordinates : t -> Mortar_util.Vec.t array

val plan :
  t ->
  ?style:[ `Rotation | `Cluster_shuffle ] ->
  ?bf:int ->
  ?d:int ->
  root:int ->
  nodes:int array ->
  unit ->
  Mortar_overlay.Treeset.t
(** Network-aware primary + derived siblings over the given node set
    (default [bf] 16, [d] 4, matching §7; [style] picks the sibling
    derivation). Requires coordinates. *)

val plan_random :
  t -> ?bf:int -> ?d:int -> root:int -> nodes:int array -> unit -> Mortar_overlay.Treeset.t

(** {1 Sensors} *)

val sensor :
  t ->
  node:int ->
  stream:string ->
  period:float ->
  ?jitter:float ->
  ?truth_slide:float ->
  (int -> Mortar_core.Value.t) ->
  unit
(** Attach a periodic sensor: every [period] seconds of true time (plus
    uniform [jitter]), inject [value k] (k = 0, 1, ...) into [stream] on
    [node]. When [truth_slide] is given, tuples carry their ground-truth
    window slot for true-completeness measurement (§5). *)

val inject : t -> node:int -> stream:string -> Mortar_core.Value.t -> unit
