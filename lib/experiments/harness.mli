(** The §7.2 microbenchmark harness.

    "These microbenchmarks deploy a sum query that subscribes to a stream
    at each peer in the system, counting the number of peers. Mortar uses
    a time window with range and slide equal to one second. A sensor at
    each system node produces the integer value 1 every second."

    This module builds that deployment — transit-stub topology, Vivaldi,
    network-aware plan, query install, sensors — and records every root
    result against true simulation time in one list, oldest first, with
    its provenance (empty unless tracking is on). Every figure accessor below
    reads that list; bandwidth comes from the transport's per-kind
    accounting. *)

type t

val create :
  ?seed:int ->
  ?hosts:int ->
  ?transits:int ->
  ?stubs:int ->
  ?bf:int ->
  ?degree:int ->
  ?style:[ `Rotation | `Cluster_shuffle ] ->
  ?window:float ->
  ?mode:Mortar_core.Query.mode ->
  ?aggregate:bool ->
  ?track_provenance:bool ->
  ?offsets:float array ->
  ?skews:float array ->
  ?config:Mortar_core.Peer.config ->
  unit ->
  t
(** Defaults follow §7: 680 hosts over 34 stubs / 8 transits, bf 16, four
    trees, 1 s tumbling window, syncless, install at t = 1 s. Sensors and
    the query are wired immediately; call {!run_until} to advance. *)

val deployment : t -> Mortar_emul.Deployment.t

val query_name : string (* lint: allow D11 oracle: test/test_faults.ml "crashed host is silent until restart" *)

val run_until : t -> float -> unit

val overcounted_windows : t -> int list
(** Reported slots, ascending, whose root result counted more hosts
    than the deployment has: a host counted twice in one window. *)

val provenance_results : t -> (float * (int * int) list) list
(** (sim emit time, provenance) per result, oldest first; the provenance
    is empty unless [create] had [~track_provenance:true]. *)

val live_hosts : t -> int

val union_bound : t -> int
(** Live nodes reachable from the root in the union graph right now. *)

val fail_fraction : t -> float -> int list
(** Disconnect a random fraction (never the root); returns the victims. *)

val reconnect : t -> int list -> unit

val repaired_unreachable : t -> int list
(** Live installed hosts (sorted) with no union path of {e current}
    (repair-mutated) parent edges — over live installed hosts only — to
    the root: the set the self-healing invariants require to drain to
    empty within the MTTR bound. The static-plan analogue is
    {!union_bound}. *)

val uninstalled_live_hosts : t -> int list
(** Live non-root hosts (sorted) that do not have the query installed —
    crash-rejoiners still waiting on reconciliation or fast resync. *)

val mbps : Mortar_emul.Deployment.t -> float -> float -> float
(** Mean total network load (megabits per second across all links) between
    two sim times, all traffic kinds. *)

val kind_mbps : t -> kind:string -> float -> float -> float

val mean_completeness : t -> float -> float -> denominator:int -> float
(** Mean of [count / denominator] over results in the window. *)

val mean_path_length : t -> float -> float -> float

val mean_max_path_length : t -> float -> float -> float
(** Mean over results of the longest constituent path — rises under
    failures as rerouted tuples take extra overlay hops (§7.2.2). *)

val mean_latency : t -> float -> float -> float
(** Mean result age (seconds behind the window) over the interval. *)
