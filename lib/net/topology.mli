(** Network topologies for emulation.

    The paper evaluates Mortar over ModelNet with Inet-generated
    transit-stub topologies: 34 stub domains, 680 end hosts uniformly
    spread across them, with the latency classes

    - host to stub router: 1 ms
    - stub router to stub router: 2 ms
    - stub router to transit router: 10 ms
    - transit router to transit router: 20 ms

    yielding a longest host-to-host one-way delay of ~104 ms. This module
    generates such topologies (plus a star for the Wi-Fi experiment of
    §7.4).

    Every host hangs off exactly one router by a single access link, so
    latencies and hop counts are precomputed as router-by-router matrices
    (Dijkstra from each of the ~42 routers) plus a per-host attachment
    array — O(R² + H) memory instead of O(H²) — while {!latency} and
    {!hops} keep returning exactly the per-host all-pairs values the old
    full-graph formulation produced.

    End hosts are identified by dense indices [0 .. hosts - 1]; routers are
    internal. *)

type host = int

type t

val transit_stub :
  Mortar_util.Rng.t ->
  ?transits:int ->
  ?stubs:int ->
  hosts:int ->
  unit ->
  t
(** [transit_stub rng ~hosts ()] builds a random transit-stub topology.
    [transits] (default 8) transit routers form a random connected ring plus
    chords; [stubs] (default 34) stub routers each attach to a random
    transit; [stubs / 4] random stub-stub shortcut links are added; [hosts] end hosts are spread uniformly across
    stubs. Latencies follow the paper's classes. *)

val star : link_delay:float -> hosts:int -> t
(** [star ~link_delay ~hosts] is a hub-and-spoke topology: every pair of
    hosts is [2 * link_delay] apart (the Wi-Fi testbed of §7.4 uses 1 ms
    links, 2 ms one-way host-to-host). *)

val hosts : t -> int
(** Number of end hosts. *)

val latency : t -> host -> host -> float
(** One-way latency in seconds between two hosts; [0.] for a host to
    itself. *)

val hops : t -> host -> host -> int
(** Number of physical links on the (latency-)shortest path. *)

val max_latency : t -> float (* lint: allow D11 oracle: test/test_net.ml "topology max latency" *)
(** Largest host-to-host one-way latency. *)

val stub_of : t -> host -> int
(** Index of the stub domain hosting a host ([0] for {!star}). *)

val stub_count : t -> int
(** Size of the stub partition: [1 + max stub_of] over all hosts. The
    sharded simulation runtime creates one logical shard per stub, so
    this — not the domain count — fixes the logical decomposition. *)

val lookahead : t -> float
(** Smallest host-to-host latency between two {e different} stub
    domains — the conservative engine's lookahead: any cross-stub
    message is in flight at least this long. [infinity] when at most
    one stub is populated ({!star}: no cross-shard traffic exists). *)

(** {2 Router-level introspection}

    Used by equivalence tests (router matrices vs. brute-force per-host
    Dijkstra) and by scale diagnostics; peers never need these. *)

val routers : t -> int
(** Number of routers (transit + stub; [1] for {!star}). *)

val attachment : t -> host -> int (* lint: allow D11 oracle: test/test_topology_equiv.ml "router matrices = per-host dijkstra (defaults)" *)
(** Router vertex ([0 .. routers - 1]) a host's access link attaches to. *)

val access_latency : t -> float (* lint: allow D11 oracle: test/test_topology_equiv.ml "router matrices = per-host dijkstra (defaults)" *)
(** One-way latency of every host access link. *)

val router_edges : t -> (int * int * float) list (* lint: allow D11 oracle: test/test_topology_equiv.ml "router matrices = per-host dijkstra (defaults)" *)
(** Undirected router-level edges [(u, v, one-way latency)], each listed
    once. *)
