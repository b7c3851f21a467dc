(** Per-node clocks with offset and skew.

    The paper (§5) distinguishes {e offset} (difference in reported time)
    and {e skew} (difference in clock frequency), borrowing the definitions
    from Moon et al. A node's local clock reads

    {v local(t) = t * (1 + skew) + offset v}

    where [t] is true (simulation) time. A perfectly synchronized node has
    [offset = 0] and [skew = 0].

    {!planetlab_offsets} draws offsets from a heavy-tailed distribution
    calibrated to the PlanetLab measurements the paper cites: roughly 20 %
    of nodes off by more than half a second and a small handful off by
    thousands of seconds. *)

type t

val synchronized : t
(** A perfect clock: [local now = now]. *)

val create : ?offset:float -> ?skew:float -> unit -> t
(** [offset] in seconds (default [0.]) and [skew] as a dimensionless
    frequency error (default [0.]; [1e-5] means 10 ppm fast). Every clock
    starts counting at true time [0.]. *)

val local_time : t -> now:float -> float
(** Local reading at true time [now]. *)

val offset : t -> float

val skew : t -> float

val planetlab_offsets : Mortar_util.Rng.t -> scale:float -> n:int -> float array
(** [planetlab_offsets rng ~scale ~n] draws [n] clock offsets (seconds,
    signed) from the synthetic PlanetLab-like distribution, linearly scaled
    by [scale] (the x-axis of the paper's Figures 9 and 10): about 60 % of
    nodes within 100 ms, 20 % beyond 500 ms, and ~1 % in the hundreds-to-
    thousands of seconds tail. [scale = 1.] reproduces the measured
    distribution; [scale = 0.] gives perfect synchronization. *)

val planetlab_skews : Mortar_util.Rng.t -> n:int -> float array
(** Small frequency errors (tens of ppm, gaussian) for the same nodes. *)
