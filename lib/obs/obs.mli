(** Observability: a metrics registry plus a structured trace.

    The paper's whole evaluation is metric-driven (completeness, result
    latency, path length, per-link bandwidth); this module makes those
    numbers first-class instead of ad-hoc accumulators inside each
    experiment. It is deliberately zero-dependency (stdlib only) so any
    library in the tree can be instrumented.

    Two layers:

    - {!Reg}: explicit registries — counters, gauges and fixed-bucket
      histograms keyed by [(scope, name)], plus an append-only trace of
      typed events stamped with {b simulation} time (the caller passes
      the stamp, taken from the sim engine or a peer's local clock —
      never the wall clock, so dumps are byte-identical across runs).
    - module-level convenience wrappers over a {!default} registry,
      gated by the {!enabled} flag. Hot paths guard the whole call with
      [if !Obs.enabled then ...] so the disabled cost is one load and a
      branch, and no event payload is ever allocated.

    Dump formats are JSON lines (one object per line), emitted in
    sorted [(scope, name)] order and with a fixed float rendering, so a
    seeded run's dump is stable byte-for-byte; {!Mortar_obs.Obs_json}
    parses them back. *)

type scope =
  | Global
  | Node of int  (** a simulated host *)
  | Query of string  (** a query name, or any string label (e.g. a scheme) *)

val scope_to_string : scope -> string (* lint: allow D11 oracle: test/test_obs.ml "scope strings" *)
(** ["global"], ["node:17"], ["query:peer-count"]. *)

val scope_of_string : string -> scope option (* lint: allow D11 oracle: test/test_obs.ml "scope strings" *)
(** Inverse of {!scope_to_string}. *)

(** The event taxonomy (see DESIGN.md "Observability"). Events carry the
    ids needed to reconstruct what happened; rates and distributions
    live in the metrics side. *)
type event =
  | Tuple_send of { src : int; dst : int; kind : string; size : int }
      (** A transport send accepted onto the wire. *)
  | Tuple_recv of { src : int; dst : int; kind : string }
      (** Delivered to the destination's handler. *)
  | Tuple_drop of { src : int; dst : int; kind : string; reason : string }
      (** Lost: ["down"], ["loss"], ["fault"], ["down_at_delivery"],
          or ["routing"] (no live route toward the root). *)
  | Ts_merge of { node : int; query : string }
      (** A summary inserted/merged into a TS list. *)
  | Tree_repair of { node : int; query : string }
      (** Query re-deployment superseding the old plan (§3.2). *)
  | Orphaned of { node : int; query : string }
      (** The failure detector found every union parent dead — the node is
          blackholed until repair finds a live donor. *)
  | Reparent of {
      node : int;
      query : string;
      tree : int;
      from_parent : int;
      to_parent : int;
      donor : string; (** ["grand"] or ["sibling"]. *)
    }
      (** One repair decision: the node adopted [to_parent] on [tree]. *)
  | Reconcile_round of { node : int; partner : int }
      (** Digest mismatch triggered a reconciliation exchange (§6.1). *)
  | Query_install of { node : int; query : string }
      (** A query instance (re)installed locally. *)
  | Window_close of { slot : int; count : int }
      (** Central processor closed a window. *)
  | Node_down of { node : int }  (** Host disconnected. *)
  | Node_up of { node : int }  (** Host reconnected. *)
  | Crash of { node : int }
      (** Process restart: all in-memory query state lost. *)
  | Fault_start of { fault : string }
      (** A scheduled network fault window opened. *)
  | Fault_stop of { fault : string }  (** ... and closed. *)
  | Result of {
      query : string;
      slot : int;
      count : int;
      value : float;
      hops : int;
      hops_max : int;
      age : float;
      prov : (int * int) list;
    }  (** A root result — the unit every figure is computed from. *)
  | Mark of { name : string; detail : string }
      (** Free-form annotation (experiment phase boundaries etc). *)

(** Immutable histogram snapshot. [h_buckets] are ascending upper edges;
    an observation [v] lands in the first bucket with [v <= edge], or in
    [h_overflow] past the last edge. *)
type hist = {
  h_buckets : float array;
  h_counts : int array;
  h_overflow : int;
  h_sum : float;
  h_count : int;
}

module Reg : sig
  type t

  val create : ?trace_cap:int -> unit -> t
  (** [trace_cap] bounds the in-memory trace (default 262144 events);
      past it, new events are counted as dropped, not recorded. *)

  val clear : t -> unit

  (** {2 Writing} *)

  val incr : t -> ?scope:scope -> ?by:int -> string -> unit
  val set_gauge : t -> ?scope:scope -> string -> float -> unit (* lint: allow D11 oracle: test/test_obs.ml "metrics sink round-trip" *)

  val observe : t -> ?scope:scope -> ?buckets:float array -> string -> float -> unit
  (** [buckets] is honoured on the first observation of a [(scope,
      name)] and ignored afterwards (fixed-bucket histograms). *)

  val trace : t -> t:float -> event -> unit
  (** [~t] is the event's simulation-time stamp. *)

  (** {2 Reading} *)

  val counter_value : t -> ?scope:scope -> string -> int (* lint: allow D11 oracle: test/test_obs.ml "scope merging" *)
  (** 0 when absent. *)

  val histogram : t -> ?scope:scope -> string -> hist option (* lint: allow D11 oracle: test/test_obs.ml "harness figures from registry" *)

  val counter_total : t -> string -> int (* lint: allow D11 oracle: test/test_obs.ml "scope merging" *)
  (** Scope merging: the sum of [name]'s counters over every scope. *)

  val histogram_total : t -> string -> hist option (* lint: allow D11 oracle: test/test_obs.ml "scope merging" *)
  (** Scope merging for histograms: element-wise sum over every scope
      holding [name]. Raises [Invalid_argument] if bucket edges differ
      across scopes. *)

  val events : t -> (float * event) list
  (** Oldest first. *)

  val trace_dropped : t -> int (* lint: allow D11 oracle: test/test_obs.ml "trace cap" *)

  val drain_trace : t -> (float * event) list
  (** Oldest first, and empties the trace (the dropped count stays). The
      sharded runtime drains per-shard traces at epoch-loop exits and
      re-emits them into the dump registry in canonical order. *)

  val fold_into : into:t -> t -> unit
  (** Merge and reset: counters and histograms from the source add into
      [into], gauges overwrite, and the source registry is cleared so
      repeated folds never double-count. Histogram bucket mismatches
      raise [Invalid_argument]. The source's trace is untouched — drain
      it explicitly. *)

  (** {2 JSON-lines dumps} *)

  val metrics_lines : t -> string list
  (** One JSON object per metric, sorted by [(scope, name)]. A non-zero
      {!trace_dropped} shows up as a synthetic [obs.trace_dropped]
      counter so truncation is never silent. *)

  val trace_lines : t -> string list
  (** One JSON object per event, in record order. *)
end

(** {1 The gated default registry}

    Library instrumentation points use these; they are no-ops unless
    {!enabled} is set. Call sites still guard with [if !Obs.enabled]
    to avoid building event payloads when disabled. *)

val enabled : bool ref
(** Off by default: the seeded figure tables and the PR 2 scale-bench
    numbers are produced with observability disabled. *)

val default : Reg.t

val set_sink : (unit -> Reg.t) -> unit
(** Route the module-level wrappers below through a resolver instead of
    straight to {!default}. The sharded simulation runtime installs a
    resolver that returns the current shard's private registry when
    called from inside a shard's event slice (via a domain-local
    context) and {!default} otherwise, so per-shard instrumentation
    never races across domains. The resolver must be cheap — it runs on
    every enabled write. *)

val incr : ?scope:scope -> ?by:int -> string -> unit
val set_gauge : ?scope:scope -> string -> float -> unit
val observe : ?scope:scope -> ?buckets:float array -> string -> float -> unit
val trace : t:float -> event -> unit

val write_lines : string -> string list -> unit
(** Write lines to a file, one per line (the [--metrics-out] /
    [--trace-out] sinks). *)

(** {1 Internal (shared with Obs_json)} *)

val json_float : float -> string
(** Shortest-round-trip float rendering; non-finite values become
    [null]. Fixed across runs, so dumps diff byte-for-byte. *)
