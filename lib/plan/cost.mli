(** The planner's bandwidth / load cost model.

    Links are charged at [tuples/sec x latency class]: the transit-stub
    topology prices a host-stub hop far below a stub-transit or
    transit-transit hop, and {!Mortar_net.Topology.latency} sums exactly
    those classes along the routed path — so edge latency is the hop
    latency class aggregate for that link. Aggregation means a tree edge
    carries (at most) one merged summary per window slide per tree, and
    dynamic striping spreads each slide's tuples over the [D] trees, so a
    tree set is charged its {e mean} per-tree edge cost at the window
    rate. Results fan out from the physical root to every subscriber at
    the same rate.

    Node load is an operator-count budget: every host a tree set uses as
    an interior (merging) node on any tree consumes one operator slot;
    {!op_budget} caps the slots the greedy placement may consume per
    host (Benoit et al.'s per-node CPU constraint, discretised). *)

type model = { op_budget : int  (** Operator slots per host (interior roles). *) }

val default : model

val treeset_cost :
  op:Mortar_core.Op.spec ->
  Mortar_net.Topology.t ->
  window:float ->
  Mortar_overlay.Treeset.t ->
  float
(** Mean per-tree sum of [edge latency x summary bytes / window] — the
    in-network bandwidth-latency product of running this tree set, in
    byte-seconds per second. Summary bytes are 96 (a scalar summary's
    [Msg.Data]), except when [op] has a fixed-size partial
    ({!Mortar_core.Op.state_wire_size}): then its serialized cap is
    charged — sketch queries pay their true fixed bytes. *)

val fanout_cost :
  op:Mortar_core.Op.spec ->
  Mortar_net.Topology.t ->
  window:float ->
  root:int ->
  int list ->
  float
(** Cost of delivering one result per window from [root] to each
    subscriber in the list ([root] itself is free), at 64 bytes per
    result (a [Result_fwd]). [op] refines the per-result bytes exactly as
    in {!treeset_cost}. *)

val interior_load : Mortar_overlay.Treeset.t -> int list
(** The hosts charged one operator slot by this tree set (sorted). *)
