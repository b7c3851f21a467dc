(** Time-bucketed metric series.

    Experiments record measurements (completeness, path length, bandwidth)
    against virtual time and report them as fixed-width time buckets — the
    time-series panels of Figures 14, 15 and 16. *)

type t

val create : bucket:float -> t
(** [create ~bucket] accumulates samples into buckets of [bucket] seconds. *)

val add : t -> time:float -> float -> unit (* lint: allow D11 oracle: test/test_sim.ml "series buckets" *)
(** Record a sample at the given virtual time. *)

val incr : t -> time:float -> float -> unit
(** Add to the bucket's running sum without counting a sample mean — use for
    counters such as bytes transferred. [incr] and [add] may not be mixed on
    one series. *)

type row = {
  t_start : float;  (** Bucket left edge, seconds. *)
  count : int;      (** Samples in the bucket. *)
  sum : float;
  mean : float;     (** [nan] for empty buckets. *)
}

val rows : t -> row list
(** All buckets from time 0 through the last touched bucket, in order;
    untouched buckets appear with [count = 0]. *)

val sum_between : t -> float -> float -> float

val merge_into : dst:t -> t -> unit
(** Add every bucket of the source series into [dst] (summing counts and
    sums bucket-wise). Both series must share the same bucket width.
    Used to combine per-shard byte accounting into one view. *)
