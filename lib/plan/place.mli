(** Cost-based operator placement for concurrent queries.

    Specs are first grouped by {!Spec.canonical_key} (the sharing rule:
    one physical tree set per class, results fanned out per subscriber),
    then each group is sited greedily in canonical key order: candidate
    roots are the group's latency medoids among its publishers plus any
    subscribers that are publishers themselves, every candidate is costed
    with {!Cost.treeset_cost} + {!Cost.fanout_cost}, and the cheapest
    candidate whose interior hosts all have operator-slot headroom wins
    (per-node operator-count budget). There is no local-search pass: a
    revisit would see every other class's load charged, a superset of
    what the greedy visit saw, so it could never find a strictly cheaper
    feasible candidate.

    Everything is deterministic: groups and candidate lists are
    canonically sorted, ties break on the smaller host id, and the
    per-candidate tree construction draws from an RNG seeded by
    [(seed, physical name, root)] only. *)

type group = {
  key : string;  (** Canonical sharing key. *)
  phys : string;  (** Physical query name ({!Spec.physical_name}). *)
  source : string;
  op : Mortar_core.Op.spec;
  window : float;
  publishers : int array;  (** Sorted, duplicate-free. *)
  specs : Spec.t list;  (** The logical queries served, name-sorted. *)
}

type placement = {
  group : group;
  root : int;
  treeset : Mortar_overlay.Treeset.t;
  (* lint: allow D12 oracle: test/test_plan.ml "score-once plan = re-scoring oracle" *)
  cost : float;  (** Tree-set cost + fan-out cost under the model. *)
}

type ctx
(** Immutable planning inputs (topology, coordinates, cost model, tree
    shape, seed) plus cumulative eval counters. *)

val ctx :
  topo:Mortar_net.Topology.t ->
  coords:Mortar_util.Vec.t array ->
  ?model:Cost.model ->
  ?bf:int ->
  ?degree:int ->
  ?candidates:int ->
  ?seed:int ->
  unit ->
  ctx
(** [coords] must cover every host id used by any spec (run Vivaldi
    convergence first). Defaults: [bf] 16, [degree] 2, [candidates] 3
    medoids, [seed] 0. *)

val group_specs : Spec.t list -> group list
(** Canonical grouping, key-sorted. *)

val with_publishers : group -> int array -> group
(** The same sharing class over a surviving publisher subset (key and
    physical name intentionally unchanged — incremental re-planning keeps
    the physical query's identity). *)

val subscribers : group -> int list
(** Distinct subscriber hosts, sorted. *)

val place_group :
  ctx -> usage:(int, int) Hashtbl.t -> ?force_root:int -> group -> placement
(** Site one group against the given operator-slot usage (not mutated):
    build and cost its candidates, then pick the cheapest budget-feasible
    one.
    [force_root] skips the candidate search and builds/costs that root
    only — used by incremental re-planning to reuse a surviving root. *)

val charge : (int, int) Hashtbl.t -> placement -> unit
(** Account the placement's interior operator slots into [usage]. *)

val discharge : (int, int) Hashtbl.t -> placement -> unit

val plan : ctx -> usage:(int * int) list -> Spec.t list -> placement list
(** Greedy placement over all sharing classes in key order, one
    placement per class, key-sorted. [usage] seeds pre-existing operator
    load; a class with no budget-feasible candidate gets the cheapest
    one. Emits the [planner.evals] counter when {!Mortar_obs.Obs.enabled}. *)
