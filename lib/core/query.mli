(** Continuous query specifications and their physical plan slices.

    A query is defined by its operator, window, source stream, and data
    management mode; its physical plan is a {!Mortar_overlay.Treeset.t}
    over the participant node set (§2.2, §3). Install messages do not ship
    the whole tree set to every node: the injector chunks the primary tree
    into components and each node ultimately needs only its own
    {!node_view} — its parent, children, and level on every tree (§6). The
    query root retains the full plan and doubles as the topology server
    for recovering nodes (§6.1).

    [seqno] orders management commands for a name: a (re)install or remove
    with a higher sequence number supersedes older commands (§6.1). *)

type mode = Syncless | Timestamp

type striping =
  | Round_robin
      (** The default dynamic-striping policy: each newly created tuple
          takes the next tree (§3.3). *)
  | By_index
      (** Content-sensitive routing (§4): the tree is a deterministic
          function of the tuple's window index, so every source sends the
          same window up the same tree — the agreement content-sensitive
          operator replicas require. Failure handling is unchanged (the
          staged policy still reroutes around dead parents). *)

type meta = {
  name : string;
  seqno : int;
  source : string; (** Local stream name each participant subscribes to. *)
  pre : Expr.transform list; (** Per-tuple select/map applied at sources. *)
  op : Op.spec;
  window : Window.t;
  mode : mode;
  striping : striping;
  root : int;
  degree : int; (** Tree-set size [D]. *)
  total_nodes : int; (** Participants, for completeness percentages. *)
  aggregate : bool;
      (** When false, interior nodes forward summaries without merging —
          the "no aggregation" baseline of §7.2.2. *)
}

val make_meta :
  name:string ->
  ?seqno:int ->
  source:string ->
  ?pre:Expr.transform list ->
  op:Op.spec ->
  window:Window.t ->
  ?mode:mode ->
  ?striping:striping ->
  root:int ->
  ?degree:int ->
  total_nodes:int ->
  ?aggregate:bool ->
  unit ->
  meta

val no_parent : int
(** [-1]: the root's entry in {!node_view.parents}. *)

type node_view = {
  parents : int array; (** Per tree; {!no_parent} at the root. *)
  children : int list array; (** Per tree. *)
  levels : int array; (** Per tree; root is 0. *)
  heights : int array; (** Per tree: the tree's total height. A node's
                            "headroom" [height - level] bounds the depth of
                            any subtree that can aggregate through it, and
                            scales its eviction-time budget. *)
  grands : int option array;
      (** Per tree: the grandparent, when repair metadata was requested at
          install time — the first donor a peer falls back to when every
          union parent is dead. Empty ([[||]]) otherwise. *)
  sibs : int list array;
      (** Per tree: the other children of this node's parent (canonical
          ascending order) — the second donor class for repair. Empty when
          repair metadata was not requested. *)
}

val view_of_treeset :
  ?repair_meta:bool -> ?heights:int array -> Mortar_overlay.Treeset.t -> int -> node_view
(** [repair_meta] (default [false]) additionally records each tree's
    grandparent and sibling set, enabling failure-driven tree repair at the
    cost of shipping the extra ids in the install ({!view_wire_size}).
    [heights] is the tree set's per-tree heights when the caller already
    has them: views built from one array share it (it is never written). *)

val neighbors : node_view -> int list
(** Distinct parents and children across trees (heartbeat partners). *)

type chunk = {
  entry : int; (** The component node the injector contacts directly. *)
  members : (int * node_view) list;
  edges : (int * int) list; (** (child, parent) pairs inside the component,
                                used to forward the install. *)
}

val chunk_plan :
  ?repair_meta:bool -> Mortar_overlay.Treeset.t -> chunks:int -> chunk list
(** Split the primary tree into roughly equal components by contiguous
    BFS-order segments; each chunk is delivered in parallel (§6, §7.1 uses
    16 chunks). Every member appears in exactly one chunk. *)

val meta_wire_size : meta -> int

val view_wire_size : node_view -> int
