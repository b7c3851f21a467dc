(** An SDIMS-like aggregating information management system over the
    simplified Pastry DHT — the comparison system of §7.2.3.

    SDIMS (Yalagandula & Dahlin, SIGCOMM 2004) hashes each attribute name
    to a key; the union of DHT routes from all nodes toward the key forms
    the aggregation tree, rooted at the key's numerically closest node.
    This port implements the behaviours that drive the paper's Figure 16:

    - {e update-up}: each node periodically publishes its local value to
      its parent (the next hop toward the key); a parent recomputes its
      partial from its child cache and forwards it upward {e immediately}
      ("nodes fail to wait before sending tuples to their parents"), so
      bandwidth scales with update rate times tree depth;
    - {e lease-cached partials}: parents hold child partials for a lease
      (30 s in §7.2.3). When routes flap — a parent is declared dead, or a
      recovered node re-enters the leaf sets — a child's partial can be
      cached at {e two} parents simultaneously, and the root transiently
      {e over-counts} (completeness above 100 %, up to ~180 % in the
      paper's run);
    - {e reactive maintenance}: leaf-set and routing-table repair engage
      on failure detection, producing the bandwidth spikes of Fig 16.

    Timer settings mirror §7.2.3: ping-neighbor 20 s, lease 30 s, leaf
    maintenance 10 s, route maintenance 60 s, publish every 5 s.

    Nodes are identified by host index; ids are [Node_id.hash_host]. The
    harness wires {!receive}/runtime exactly as for {!Mortar_core.Peer}. *)

type msg =
  | Update of { query : string; child : Mortar_dht.Node_id.t; value : float; count : int }
  | Probe of { query : string; origin : int }
  | Probe_reply of { query : string; value : float; count : int }
  | Ping
  | Pong
  | Leafset_request
  | Leafset_reply of { members : int list } (** Host indices. *)

type timer = Mortar_sim.Engine.handle
(** The engine's own handle for an armed timer, an immediate int;
    {!Mortar_sim.Engine.no_handle} stands for "none armed". *)

type runtime = {
  send : src:int -> dst:int -> size:int -> kind:string -> msg -> unit;
  local_time : int -> float; (** A node's clock. *)
  set_timer : int -> after:float -> (int -> unit) -> timer;
      (** [set_timer node ~after f] runs [f node] after [after] seconds,
          as {!Mortar_core.Peer.runtime}'s [set_timer] does. *)
}
(** The environment, shared by every node: each function takes the node's
    host id, as {!Mortar_core.Peer.runtime}'s do. *)

type t

val create : runtime -> self:int -> rng:Mortar_util.Rng.t -> t
(** The node of host [self], drawing from its own [rng]. *)

val bootstrap : t -> members:int list -> unit
(** Seed routing state with the full membership — the paper's federated
    setting where the node set is well known. *)

val receive : t -> src:int -> msg -> unit

val set_local : t -> query:string -> float -> unit
(** Publish a local value for the attribute (starts the publish timer on
    first use). *)

val probe : t -> query:string -> unit
(** Route a probe toward the attribute root; the reply arrives at this
    node's {!on_probe_reply} handler. *)

val on_probe_reply : t -> (query:string -> value:float -> count:int -> unit) -> unit

val is_root : t -> query:string -> bool (* lint: allow D11 oracle: test/test_dht_sdims.ml "sdims aggregates" *)

val root_value : t -> query:string -> (float * int) option (* lint: allow D11 oracle: test/test_dht_sdims.ml "sdims aggregates" *)
(** The root's current aggregate (own + live cached children). *)
