(** Time-bucketed metric series.

    Experiments record measurements (completeness, path length, bandwidth)
    against virtual time and report them as fixed-width time buckets — the
    time-series panels of Figures 14, 15 and 16. *)

type t

val create : bucket:float -> t
(** [create ~bucket] sums values into buckets of [bucket] seconds. *)

val incr : t -> time:float -> float -> unit
(** Add to the running sum of the bucket holding the given virtual time —
    counters such as bytes transferred. *)

val rows : t -> float list
(** The sum of every bucket from time 0 through the last touched bucket,
    in order; untouched buckets read [0.]. *)

val sum_between : t -> float -> float -> float

val merge_into : dst:t -> t -> unit
(** Add every bucket of the source series into [dst], bucket-wise. Both series must share the same bucket width.
    Used to combine per-shard byte accounting into one view. *)
