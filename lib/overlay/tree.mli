(** Rooted overlay trees over a set of node identifiers.

    A Mortar query's physical dataflow is a set of such trees (the primary
    and its siblings, §3). Nodes are arbitrary non-negative integers (host
    ids); a tree spans an explicit node set, not necessarily the whole
    system — Mortar queries are {e scoped} (§2.1). *)

type node = int

type t

val of_parents : root:node -> (node * node) list -> t
(** [of_parents ~root edges] builds a tree from [(child, parent)] pairs.
    @raise Invalid_argument if a node has two parents, the root has a
    parent, an edge refers to the root as child, or the structure is not a
    single connected tree rooted at [root]. *)

val root : t -> node

val nodes : t -> node array
(** All members: the root first, then the rest in ascending order. *)

val size : t -> int

val mem : t -> node -> bool

val parent : t -> node -> node option
(** [None] for the root. @raise Not_found for non-members. *)

val children : t -> node -> node list
(** Ascending; empty for leaves. @raise Not_found for non-members. *)

val height : t -> int
(** Maximum level. *)

val is_leaf : t -> node -> bool

val internal_nodes : t -> node list
(** Non-leaf members (root included when it has children). *)

val post_order : t -> node list
(** Children before parents; the root is last. *)

val path_to_root : t -> node -> node list (* lint: allow D11 oracle: test/test_overlay.ml "tree path to root" *)
(** The node itself first, then ancestors up to and including the root. *)

val edges : t -> (node * node) list
(** All [(child, parent)] pairs, in ascending child order. *)

(** {2 Positions}

    A member's position is its rank among the tree's member ids, in
    [\[0, size t)]. Trees over one node set — every tree of a
    {!Treeset} — therefore number their members alike: look a member up
    once, then read any of the trees at that position. *)

val position : t -> node -> int
(** Binary search. @raise Not_found for non-members. *)

val node_at : t -> int -> node

val parent_position : t -> int -> int
(** The parent's position; [-1] at the root. *)

val children_at : t -> int -> node list
(** The children's ids, ascending. *)

val level_at : t -> int -> int
(** Depth; the root is at level 0. *)
