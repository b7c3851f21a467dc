(** Exponentially weighted moving averages.

    Mortar operators track [netDist], an EWMA of the maximum observed tuple
    age, to set dynamic eviction timeouts (paper §4.3, footnote: alpha = 10 %
    "worked well in practice"). *)

type t

val create : ?alpha:float -> unit -> t
(** [create ~alpha ()] makes an empty average; [alpha] defaults to [0.1] and
    is the weight of each new sample. *)

val update : t -> float -> unit
(** Fold in a sample. The first sample initialises the average. *)

val update_max : t -> float -> unit (* lint: allow D11 test-only, deletion deferred: test/test_util.ml "ewma update_max jumps" *)
(** Fold in a sample, but jump directly to the sample when it exceeds the
    current average (an EWMA "of the maximum": rises fast, decays slowly).
    This is how Mortar tracks the longest path delay. *)

val value : t -> float option (* lint: allow D11 oracle: test/test_util.ml "ewma first sample" *)
(** Current average, or [None] before any sample. *)

val value_or : t -> float -> float
(** Current average, or the given default before any sample. *)

val samples : t -> int (* lint: allow D11 oracle: test/test_util.ml "ewma samples counted" *)
(** Number of samples folded in so far. *)
