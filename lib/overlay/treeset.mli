(** A query's physical dataflow: the primary tree plus derived siblings.

    Every tree in the set spans the same node set and shares the same root
    (the query root operator). Peers consult the set for their parent,
    children, and level on each tree — the inputs to the dynamic striping
    routing policy (§3.3). *)

type t

val create : primary:Tree.t -> siblings:Tree.t list -> t (* lint: allow D11 oracle: test/test_overlay.ml "treeset validation" *)
(** @raise Invalid_argument when a sibling's root or node set differs from
    the primary's. *)

val plan :
  ?style:[ `Rotation | `Cluster_shuffle ] ->
  Mortar_util.Rng.t ->
  coords:Mortar_util.Vec.t array ->
  bf:int ->
  d:int ->
  root:int ->
  nodes:int array ->
  t
(** Plan a primary tree from coordinates and derive [d - 1] siblings.
    [style] selects the derivation: the paper's random rotations, or the
    default cluster shuffle ({!Sibling.derive_cluster_shuffle}) which
    avoids the rotation scheme's diversity collapse on skewed full trees.
    Requires [d >= 1]. *)

val random :
  Mortar_util.Rng.t -> bf:int -> d:int -> root:int -> nodes:int array -> t
(** [d] independent random trees (the baseline configuration). *)

val degree : t -> int
(** Number of trees, [D]. *)

val tree : t -> int -> Tree.t
(** [tree t i] for [i] in [\[0, degree t)]; tree [0] is the primary. *)

val trees : t -> Tree.t array

val root : t -> int

val nodes : t -> int array

val parent : t -> tree:int -> int -> int option

val children : t -> tree:int -> int -> int list

val level : t -> tree:int -> int -> int

val grandparent : t -> tree:int -> int -> int option
(** The parent's parent on one tree — the first repair donor a node falls
    back to when its parent dies ({!Sibling.repair_donors}). [None] for the
    root and its children. *)

val siblings : t -> tree:int -> int -> int list
(** The other children of the node's parent on one tree, in canonical
    (ascending) order — the second class of repair donors. Empty for the
    root. *)

val unique_children : t -> int -> int list
(** Distinct children across the set (the heartbeat fan-out of Fig 13). *)

val union_edges : t -> (int * int) list (* lint: allow D11 oracle: test/test_plan.ml "score-once plan = re-scoring oracle" *)
(** All distinct [(child, parent)] edges across the tree set, canonically
    sorted — the link set a bandwidth cost model charges for. *)

val interior_hosts : t -> int list
(** Hosts that run an in-network operator on at least one tree (non-leaf
    on that tree), canonically sorted — the per-node operator-count load
    the multi-query planner budgets against. *)
