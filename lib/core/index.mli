(** Time-division indices: validity intervals for summary tuples (§4.1).

    A summary tuple is valid for a half-open time range [\[tb, te)]. For
    time windows with slide [s], source operators produce ranges aligned to
    multiples of [s], so exact matches are the common case; partial
    overlaps arise from tuple windows, stalls extended by boundary tuples,
    and syncless install deltas. *)

type t = { tb : float; te : float }

val make : tb:float -> te:float -> t
(** @raise Invalid_argument unless [tb < te]. *)

val of_slot : slide:float -> int -> t
(** [of_slot ~slide i] is the i-th window [\[i*slide, (i+1)*slide)]. *)

val slot : slide:float -> float -> int
(** [slot ~slide time] is the window index containing [time] (floor
    division; correct for negative times too). *)

val duration : t -> float

val equal : t -> t -> bool
(** Exact match up to a small epsilon. *)

val overlaps : t -> t -> bool
(** Non-empty intersection. *)

val intersect : t -> t -> t option

val compare_by_start : t -> t -> int (* lint: allow D11 oracle: test/test_ts_list_diff.ml "differential: random overlaps" *)
