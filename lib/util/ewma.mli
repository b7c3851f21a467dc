(** Exponentially weighted moving averages.

    Mortar operators track [netDist], an EWMA of the maximum observed tuple
    age, to set dynamic eviction timeouts (paper §4.3, footnote: alpha = 10 %
    "worked well in practice"). *)

type t

val create : unit -> t
(** An empty average; each new sample weighs 10 %. *)

val update : t -> float -> unit
(** Fold in a sample. The first sample initialises the average. *)

val value : t -> float option (* lint: allow D11 oracle: test/test_util.ml "ewma first sample" *)
(** Current average, or [None] before any sample. *)

val value_or : t -> float -> float
(** Current average, or the given default before any sample. *)

val samples : t -> int (* lint: allow D11 oracle: test/test_util.ml "ewma samples counted" *)
(** Number of samples folded in so far. *)
