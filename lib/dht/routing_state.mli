(** Pastry routing state: leaf set plus prefix routing table.

    Pure data structures; liveness-driven mutation (marking nodes dead,
    repair from a membership list) is performed by the owning protocol
    node. The paper's SDIMS runs over FreePastry with "routing consistency"
    and explicit disconnection tests (§7.2.3); this simplified port keeps
    the two structures that determine route shape — and therefore SDIMS
    aggregation-tree shape — while maintenance timers live in
    {!Mortar_sdims}. *)

type t

val create : self:Node_id.t -> leaf_radius:int -> t
(** [leaf_radius] nodes kept on each side of the ring (8 in Pastry's
    L=16). *)

val self : t -> Node_id.t

val add : t -> Node_id.t -> unit
(** Consider a live node for the leaf set and routing table. Adding the
    own id is a no-op. *)

val remove : t -> Node_id.t -> unit
(** Drop a failed node from both structures. *)

val known : t -> Node_id.t list
(** All ids currently referenced (leaf set and table). *)

val leaves : t -> Node_id.t list

val next_hop : t -> Node_id.t -> Node_id.t option
(** Pastry routing: if the key falls within the leaf-set range, the
    numerically closest leaf (or [None] when that is [self]); otherwise
    the routing-table entry sharing a longer prefix; otherwise any known
    node numerically closer to the key than [self]; [None] when [self] is
    the closest known — i.e. this node is the key's root. *)
