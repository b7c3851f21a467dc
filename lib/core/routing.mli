(** The staged multipath routing policy of Figure 5 (§3.3).

    Tuples carry, per tree, the last level at which they visited that tree
    ([TL]); an operator occupies level [OL(x)] on each tree [x]. On tuple
    arrival (or creation) the operator picks a destination in stages, each
    allowing more freedom at the cost of possibly longer paths:

    + {e Same tree}: the parent on the arrival tree, if live;
    + {e Up*}: a parent [P(x)] on a tree [x] whose local level satisfies
      [OL(x) <= TL(t)] — at least as close to the root as the tuple was on
      its arrival tree;
    + {e Flex}: a parent on any tree with [OL(x) <= TL(x)] — forward
      progress with respect to that tree's own history;
    + {e Flex down}: a live {e child} on a tree with [OL(x) <= TL(x)],
      incrementing the tuple's TTL-down; unavailable once TTL-down
      exceeds 3;
    + {e Drop}.

    Stages 2-4 choose the eligible tree with the minimum local level.
    Stages 1-3 are cycle-free because a tuple never re-enters a tree at a
    level it has already visited; flex-down trades that guarantee for
    connectivity and is bounded by the TTL. *)

type decision =
  | Forward of { dst : int; tree : int; descended : bool }
  | Deliver_root (** The local operator is the query root. *)
  | Drop

val max_ttl_down : int (* lint: allow D11 oracle: test/test_routing.ml "stage 4 TTL" *)
(** The paper stops flex-down after 3 backward steps (§3.3); with the
    path vector preventing revisits, a longer leash (6) lets stranded
    pocket aggregates find the union-graph escape route the paper's
    Figure 12 numbers imply. *)

val initial_visited : Query.node_view -> (int * int) list
(** A freshly created tuple has visited every tree at its creator's
    level. *)

val update_visited : (int * int) list -> tree:int -> level:int -> (int * int) list
(** Record that the tuple now sits at [level] on [tree]. *)

val path_horizon : int
(** How many recently visited nodes a tuple remembers (12). *)

val route :
  ?avoid:int list ->
  view:Query.node_view ->
  alive:(int -> bool) ->
  rng:Mortar_util.Rng.t ->
  visited:(int * int) list ->
  arrival_tree:int ->
  ttl_down:int ->
  unit ->
  decision
(** Decide the next hop for a tuple that arrived on [arrival_tree] (for a
    freshly created tuple, the tree chosen by striping). [alive] reports
    neighbor liveness from the heartbeat manager. [rng] breaks ties among
    equally ranked children in flex-down.

    [avoid] lists the tuple's recently visited nodes (its bounded path
    vector); no stage forwards to a node in it. The paper's level-only
    cycle avoidance admits short cycles once flex-down is in play (§3.3
    concedes flex-down is not cycle-free): a pocket of nodes whose only
    live parents are each other bounces a stranded tuple until its TTL
    expires. Remembering the last {!path_horizon} nodes lets such tuples
    descend out of the pocket instead, approaching the union-graph
    connectivity the paper's Figure 12 reports. *)

val stripe_tree : Query.node_view -> counter:int -> int option
(** Round-robin striping: the [counter]-th live-independent choice of tree
    for a newly created tuple — simply [counter mod degree], skipping trees
    where this node is the root. [None] when the node is the root of every
    tree (it delivers locally). *)
