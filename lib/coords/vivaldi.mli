(** Vivaldi decentralized network coordinates (Dabek et al., SIGCOMM 2004).

    Mortar's physical dataflow planner clusters peers on network coordinates
    to build a latency-aware primary tree (§3.1); the prototype used
    Bamboo's Vivaldi implementation with 3-dimensional coordinates
    (footnote 5). This module implements the adaptive-timestep Vivaldi
    algorithm with confidence weights ([c_c = c_e = 0.25] as in the paper's
    recommended settings), plus a convergence driver that simulates rounds
    of all-pairs gossip sampling against a {!Mortar_net.Topology}.

    Coordinates predict one-way latency by Euclidean distance (seconds). *)

type node
(** Per-node Vivaldi state. *)

type system
(** A set of Vivaldi nodes converging against a topology. *)

val create : Mortar_net.Topology.t -> rng:Mortar_util.Rng.t -> unit -> system

val converge : system -> rounds:int -> samples:int -> unit
(** Run several rounds; the paper lets Vivaldi run "for at least ten
    rounds" before planning (§7.3). *)

val coordinates : system -> Mortar_util.Vec.t array
(** Current coordinate of every host, indexed by host id. *)

val relative_error : system -> float (* lint: allow D11 oracle: test/test_cluster_coords.ml "vivaldi converges" *)
(** Median relative error of coordinate-predicted vs true latency over a
    random sample of pairs — a convergence diagnostic. *)
