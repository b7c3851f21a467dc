(** Per-window completeness scoring.

    Completeness is the paper's headline metric (§2.1, §5): for each
    true window, the fraction of its expected tuples the consumer saw.
    A [t] tallies, per window slot, every count offered for it; a
    caller then picks which tally to score:

    - {!best}: the largest count any single result carried — the
      paper's "true completeness" (figs 9/10, mlq, sketch, bench);
    - {!total}: the sum over all results — delivered completeness,
      meaningful when the soak's overcount invariant certifies the sum
      is duplicate-free.

    {!mean} averages either one over an explicit slot range in which a
    slot that never received a result scores 0. *)

type t

val create : unit -> t

val offer : t -> at:float -> slot:int -> int -> bool
(** Record one result's count [n] for [slot], seen at time [at].
    Returns [true] when this is the slot's first count or strictly
    exceeds its previous best. *)

val of_prov : (float * (int * int) list) list -> t
(** Offer every [(slot, n)] of each [(at, provenance)] result. *)

val slots : t -> int list
(** Slots with at least one count, ascending. *)

val best : t -> int -> int
(** Largest single count for the slot; 0 if absent. *)

val total : t -> int -> int
(** Sum of all counts for the slot; 0 if absent. *)

val first_at : t -> int -> float option
(** Earliest [at] offered for the slot. *)

val mean : (int -> int) -> denom:int -> int list -> float
(** [mean count ~denom slots] averages [min (count s) denom / denom]
    over [slots] in order; [nan] on [[]]. *)
