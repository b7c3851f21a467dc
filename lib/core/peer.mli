(** The Mortar peer runtime.

    A peer is an event-driven process that accepts, compiles and injects
    queries, hosts operator instances, exchanges heartbeats, routes tuples
    over the query tree set, and runs the reconciliation protocol. It is
    written against an abstract {!runtime} (send / timers / local clock),
    the role Bamboo's ASyncCore event loop played in the prototype (§7);
    the simulator supplies the implementation, and all of the peer's logic
    is timing-source agnostic.

    Dataflow (per installed query, §4):
    - the peer's local source stream is windowed ({e merging across time})
      and every slide produces a summary tuple — or a boundary tuple when
      the stream stalled;
    - summaries are striped round-robin across the tree set and routed by
      the staged policy of Fig 5;
    - arriving summaries are re-indexed (syncless mode, Fig 7) and merged
      into the TS list ({e merging across space}); entries evict on dynamic
      timeouts [netDist - T.age] and are forwarded upward, or reported at
      the root;
    - summaries arriving after their window was already evicted are passed
      through toward the root without merging, preserving best-effort
      delivery of late data.

    All times handed to the peer are {e local}: the peer never sees true
    simulation time. Ages are measured by differencing local readings, so
    clock {e offset} cancels and only skew remains — the syncless design
    point of §5. *)

type timer = Mortar_sim.Engine.handle
(** A scheduled callback: the engine's own handle, an immediate int, so
    arming a timer allocates no wrapper (timers are re-armed after every
    TS-list insert). The peer keeps each armed timer in a plain field and
    uses {!Mortar_sim.Engine.no_handle} for "none armed"; it cancels
    through the runtime's [cancel_timer] and never calls the engine
    itself. *)

type runtime = {
  self : int;
  send : dst:int -> size:int -> kind:string -> Msg.payload -> unit;
  local_time : unit -> float; (** The node's (possibly offset/skewed) clock. *)
  latency_to : int -> float;
      (** One-way latency estimate to a neighbor (UdpCC RTT/2 in the
          prototype); used to account network delay into tuple ages. *)
  set_timer : after:float -> (unit -> unit) -> timer; (** [after] is in local seconds. *)
  cancel_timer : timer -> unit;
      (** Drop an armed timer's callback. A no-op on a fired or cancelled
          timer and on {!Mortar_sim.Engine.no_handle}. The simulator
          passes [Engine.cancel] of the engine [set_timer] schedules
          on. *)
  rng : Mortar_util.Rng.t;
}

type config = {
  hb_period : float; (** Heartbeat period; 2 s in §7.2.2. *)
  level_wait : float;
      (** Eviction-time budget per level of headroom: a node at level [l]
          of a height-[h] tree may hold a window for at most
          [min_timeout + (h - l) * level_wait] (with [min_timeout] =
          0.25 s), laddering evictions from the leaves to the root. *)
  quiet_guard : float;
      (** Each merge extends the entry deadline to at least now + guard
          (bounded by the headroom cap): eviction waits for per-window
          quiescence. See DESIGN.md on why the paper's first-arrival-only
          timeout is unstable under dynamic striping. *)
  ctl_retries : int;
      (** Retransmit budget per reliable control message (Install, Remove,
          View_request, View_reply): up to [1 + ctl_retries]
          transmissions, then the peer gives up and relies on §6.1
          reconciliation. The default is [0] — fire-and-forget, the
          paper's behaviour, keeping the figure reproductions'
          message pattern intact; set it positive to enable the reliable
          control plane. *)
  self_heal : bool;
      (** Enables the self-healing data plane (DESIGN.md "Self-healing &
          recovery"): installs ship repair metadata (grandparent + sibling
          ids per tree), a peer whose union parents are all dead
          deterministically re-parents onto a live donor, and summaries
          for an uninstalled query trigger an immediate resync and are
          buffered for warm-up replay instead of being dropped. Off by
          default — repair mutates views and widens installs, which would
          shift every seeded figure. *)
  warmup_buffer : int;
      (** Per-query cap on summaries buffered while a query is awaiting
          (re)install. [0] (default) disables buffering: warm-up arrivals
          are counted as drops but still trigger the fast resync when
          [self_heal] is on. *)
}
(** The settings that runs vary. The protocol's fixed parameters (§7:
    3-period neighbor timeout, a digest every third heartbeat, 16
    install chunks, the eviction-timeout floor and slack, the control
    plane's RTO floor, backoff and jitter) are constants of the
    implementation. *)

val default_config : config

type result = {
  query : string;
  index : Index.t; (** In the root's local basis. *)
  slot : int; (** Local window slot for time windows; [-1] for tuple windows. *)
  value : Value.t; (** Finalized operator output. *)
  count : int; (** Participants included (completeness numerator). *)
  completeness : float; (** [count / total_nodes]. *)
  age : float; (** Average constituent age at the root. *)
  hops : int; (** Count-weighted mean constituent overlay path. *)
  hops_max : int; (** Longest constituent overlay path. *)
  prov : (int * int) list; (** True-window provenance when tracked. *)
  emitted_at_local : float;
}

(** Per-host event counts, one always-live slot each: {!stats} and
    {!count} read them, and the deployment exports them to the Obs dump
    under {!counter_name} and the host's [Node] scope. A new count is a
    new constructor here, not a new field or an inline [Obs.incr]. *)
type counter =
  | Results  (** Root results emitted. *)
  | Results_forwarded  (** Results forwarded to shared-tree subscribers. *)
  | Results_fwd_received  (** Forwarded results received as a subscriber. *)
  | Received  (** Data summaries received. *)
  | Late  (** Arrived after local eviction; passed through. *)
  | Dropped  (** Routing policy exhausted (stage 5). *)
  | Ts_inserts  (** Summaries merged into a TS list. *)
  | Type_faults  (** Tuples an operator or transform failed on ({!Value.Type_error}). *)
  | Reconciliations  (** Digest mismatches that started an exchange. *)
  | Ctl_acked  (** Reliable control messages acknowledged. *)
  | Ctl_retransmits  (** Control retransmissions sent. *)
  | Ctl_abandoned  (** Control messages whose retry budget ran out. *)
  | Installs  (** Query instances (re)installed locally. *)
  | Repairs  (** Orphanings closed by a confirmed-live parent. *)
  | Reparent_edges  (** Individual per-tree adoption decisions. *)
  | Adoptions  (** Repairing orphans adopted as children. *)
  | Fast_resyncs  (** Reconciliations started by data for an unknown query. *)
  | Warmup_buffered  (** Summaries held for replay during warm-up. *)
  | Warmup_replayed  (** Buffered summaries re-entered after install. *)
  | Warmup_drops  (** Warm-up arrivals lost (no or full buffer). *)
  | Partners_swept  (** Idle zero-refcount partner entries reclaimed. *)
  | Crashes  (** Process crashes ({!crash}). *)

val counters : counter array
(** Every counter, once each. *)

val counter_name : counter -> string
(** The metric name in the observability dump, e.g. ["peer.late"]. *)

(** Some of the {!counter}s, by field. *)
type stats = {
  tuples_late : int;
  tuples_dropped : int;
  reconciliations : int;
  ctl_retransmits : int;
  ctl_abandoned : int;
  repairs : int;
  warmup_dropped : int;
}

type t

val create : ?config:config -> runtime -> t

(** {1 Wiring} *)

val receive : t -> src:int -> Msg.payload -> unit
(** Connect to the transport's delivery handler. *)

val inject : t -> stream:string -> ?true_slot:int -> Value.t -> unit
(** Deliver one raw sensor tuple to the local stream [stream]. [true_slot]
    is the measurement harness's ground-truth window id (never visible to
    query logic). *)

val on_result : t -> (result -> unit) -> unit
(** Root-side result callback. Results are also re-injected locally as a
    stream named after the query, so further queries can subscribe to a
    query's output stream (§2.2). *)

type remote_result = {
  r_query : string; (** The physical (shared) query name. *)
  r_slot : int;
  r_value : Value.t;
  r_count : int;
  r_age : float;
  r_from : int; (** The forwarding root. *)
}

val on_remote_result : t -> (remote_result -> unit) -> unit
(** Subscriber-side callback for {!Msg.Result_fwd} fan-out: results of a
    shared physical query this host subscribes to without being its
    root. *)

val set_result_forwards : t -> query:string -> int list -> unit
(** Root-side fan-out registration (multi-query planner): after every
    non-boundary result of [query], forward it to each listed host. The
    list replaces any previous registration ([\[\]] clears it); this host
    itself is dropped (local delivery already happens via {!on_result}).
    Forwarding state is root-local and lost on {!crash}. *)

(** {1 Query management} *)

val install_query : t -> Query.meta -> Mortar_overlay.Treeset.t -> unit
(** Act as injector: retain the full plan (topology service), install
    locally, and multicast chunked installs (§6). The peer must be the
    plan's root. *)

val remove_query : t -> name:string -> unit
(** Multicast removal down the primary tree; requires the full plan (only
    the injector has it). *)

val installed : t -> string list

val has_query : t -> string -> bool

val query_seqno : t -> string -> int option (* lint: allow D11 oracle: test/test_peer.ml "reinstall supersedes" *)

(** {1 Failure injection} *)

val crash : t -> unit
(** The process dies: every armed timer (operator windows and evictions,
    control retransmissions, the heartbeat) is cancelled and all
    in-memory state is replaced by a fresh process's — installed
    queries, removal seqnos, the injector's plans and result fan-out,
    heartbeat partners, the control plane's pending and duplicate
    tables. Only {!count}s, control tokens and the handlers survive.
    Until {!restart} the peer does nothing on its own; the deployment
    also takes it off the network. *)

val restart : t -> unit
(** Start the crashed process again: the heartbeat resumes one period
    later. Reconciliation (§6) re-installs its queries over time. *)

(** {1 Introspection} *)

val stats : t -> stats

val count : t -> counter -> int
(** Since {!create}; {!crash} does not reset counts. *)

val ts_length : t -> query:string -> int option

val ctl_in_flight : t -> int (* lint: allow D11 oracle: test/test_faults.ml "acks clear in-flight" *)
(** Reliable control messages currently awaiting an ack. *)

val current_parents : t -> query:string -> int option array option
(** The instance's {e current} per-tree parents — the static plan's, as
    mutated by any repair adoptions. For the soak harness's ground-truth
    reachability check. *)

val partner_count : t -> int (* lint: allow D11 oracle: test/test_plan.ml "refcount lifecycle reclaims state" *)
(** Heartbeat-partner table size (sweep diagnostics). *)

val plan_cached : t -> name:string -> bool
(** Whether the injector still retains the full tree set for [name].
    [false] after {!remove_query} (only a seqno tombstone remains) — the
    regression guard for the plan-table leak. *)

val digest : t -> string (* lint: allow D11 oracle: test/test_peer.ml "digest agreement" *)
(** Current MD5 digest over installed and removed query state (§6.1). *)
