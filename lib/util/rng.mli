(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    simulation and experiment is exactly reproducible from a seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    statistically solid, splittable generator that is ideal for seeding many
    independent per-node streams from one experiment seed. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use this to give each simulated node its own stream. *)

val bits64 : t -> int64 (* lint: allow D11 oracle: test/test_util.ml "rng deterministic" *)
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box-Muller. *)

val exponential : t -> rate:float -> float (* lint: allow D11 test-only, deletion deferred: test/test_util.ml "rng exponential positive" *)
(** Exponential deviate with the given rate (mean [1. /. rate]). *)

val pareto : t -> xm:float -> alpha:float -> float
(** Pareto deviate with scale [xm] and shape [alpha]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> 'a array -> int -> 'a array
(** [sample t arr k] draws [k] distinct elements uniformly (reservoir-free:
    partial Fisher-Yates on a copy). Requires [k <= Array.length arr]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
