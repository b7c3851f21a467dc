(** Descriptive statistics over float samples.

    Used by the experiment harness to report means, standard deviations, and
    percentiles for the figures in the paper's evaluation. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val stddev : float array -> float (* lint: allow D11 oracle: test/test_util.ml "rng gaussian moments" *)
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    samples. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], using linear interpolation
    between closest ranks. Does not mutate the input. [nan] when empty. *)

val median : float array -> float
