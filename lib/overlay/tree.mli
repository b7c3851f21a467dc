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
(** All members, root included, in unspecified order. *)

val size : t -> int

val mem : t -> node -> bool

val parent : t -> node -> node option
(** [None] for the root. @raise Not_found for non-members. *)

val children : t -> node -> node list
(** Empty for leaves. @raise Not_found for non-members. *)

val level : t -> node -> int
(** Depth; the root is at level 0. @raise Not_found for non-members. *)

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
(** All [(child, parent)] pairs. *)

val map_nodes : t -> (node -> node) -> t (* lint: allow D11 oracle: test/test_edge_cases.ml "map_nodes by bijection preserves structure" *)
(** Relabel every node through a bijection. *)
