(** The §2.1 motivating simulation behind Figure 1.

    Builds random trees over [n] nodes, fails overlay links uniformly at
    random, and measures {e result completeness} — the percentage of nodes
    whose data can still reach the root — under the candidate multipath
    schemes:

    - {e single tree}: a node counts iff its path to the root in the one
      tree is fully live;
    - {e static striping} (TAG): each node sends [1/D] of its data up each
      of [D] trees; its contribution is the fraction of trees in which its
      path is live;
    - {e mirroring} (Borealis/Flux): full copies up each of [D] trees; a
      node counts iff at least one tree-path is live — at [D] times the
      bandwidth;
    - {e dynamic striping} (Mortar): tuples may switch trees at any node,
      so a node counts iff it can reach the root in the union graph of
      live links across the [D] trees.

    Node failures are also supported: failing a node removes all its links
    in every tree. *)

type scheme =
  | Single_tree
  | Static_striping of int (* D *)
  | Mirroring of int (* D *)
  | Dynamic_striping of int (* D *)

val scheme_name : scheme -> string

val completeness :
  Mortar_util.Rng.t ->
  trees:Tree.t array ->
  link_failure:float ->
  scheme ->
  float
(** One trial: fail each overlay link independently with probability
    [link_failure] (independently per tree — distinct physical paths), and
    return completeness in [\[0, 1\]] over non-root nodes. The scheme uses
    the first [D] trees of [trees]. *)

val union_reachable : Tree.t array -> dead:(int -> bool) -> int list
(** Live nodes that can reach the root in the union graph of the trees'
    edges restricted to live nodes — the upper bound ("optimal") on what
    dynamic striping can deliver, used by experiments to normalise
    measured completeness. *)

type trial_result = { mean : float; stddev : float }

val run_trials :
  seed:int ->
  n:int ->
  bf:int ->
  trials:int ->
  link_failure:float ->
  scheme ->
  trial_result
(** Fresh random trees per trial over [n] nodes with branching factor
    [bf]; returns completeness (percent) across trials. *)
