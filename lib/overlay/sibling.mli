(** Sibling tree derivation (§3.2).

    Each sibling is derived from the primary tree by walking the tree in
    post-order and performing a random rotation at every internal position:
    a uniformly chosen child's label is exchanged with the current
    parent's. Leaves percolate into the interior — creating path diversity
    approaching that of random trees — while most of the primary's latency
    clustering is retained, because any given leaf is unlikely to rise far.

    The derivation permutes {e labels} over a fixed shape, so siblings have
    exactly the primary's shape and node set. *)

val derive : Mortar_util.Rng.t -> Tree.t -> Tree.t
(** One sibling from the primary by the paper's random rotations. *)

val derive_many : Mortar_util.Rng.t -> Tree.t -> n:int -> Tree.t list
(** [n] independent siblings, each derived from the primary. *)

val derive_cluster_shuffle : Mortar_util.Rng.t -> bf:int -> Tree.t -> Tree.t
(** A sibling that rebuilds each top-level cluster (each level-1 subtree of
    the primary) as an independent random [bf]-ary tree over the cluster's
    nodes, with a freshly drawn cluster head attached to the root.

    Rationale: on the skewed full trees the planner produces (e.g. 680
    nodes at bf 16), most bottom-level internal positions have one or two
    children, so the rotation scheme is near-deterministic there and
    siblings repeat the primary's parent assignments — many nodes end up
    with the {e same} parent on most trees, collapsing path diversity
    exactly where failures bite. Rebuilding within clusters preserves the
    primary's network-awareness (clusters are latency-coherent by
    construction) while giving every node independently drawn parents on
    each sibling. The rotation scheme remains available for comparison
    (see the sibling-derivation ablation bench). *)

val derive_many_cluster_shuffle :
  Mortar_util.Rng.t -> bf:int -> Tree.t -> n:int -> Tree.t list

val repair_donors :
  self:int -> grand:int option -> siblings:int list -> (int * [ `Grand | `Sib ]) list
(** Canonical donor order for failure-driven tree repair: the grandparent
    (when the orphan is at level ≥ 2) first, then surviving siblings in
    ascending id order, {e filtered to ids strictly below [self]}. The
    filter is the acyclicity guard: every adoption edge strictly decreases
    the (original level, id) lexicographic rank of the parent end, so
    concurrent repairs can never stitch the per-tree parent graph into a
    cycle — two mutually orphaned siblings cannot both adopt each other. *)

val interior_overlap : Tree.t -> Tree.t -> float (* lint: allow D11 oracle: test/test_overlay.ml "sibling diversity" *)
(** Fraction of one tree's internal node labels that are also internal in
    the other — a diagnostic for path diversity ([1.] = identical
    interiors, [0.] = interior-node disjoint). *)
