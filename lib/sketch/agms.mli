(** AGMS "tug-of-war" sketch (Alon, Gilbert, Matias & Szegedy, as
    bucketized by Cormode & Garofalakis): [rows] independent vectors of
    [cols] signed counters estimating the second frequency moment F2
    (self-join size) of the inserted multiset.

    Each insert adds [±w] to one counter per row; a row's estimate is
    the sum of its squared counters (variance ~ 2·F2²/cols) and the
    sketch answers with the median across rows. Linear like Count-Min:
    [merge] adds, [sub] retracts, both exact on the counters. *)

type t

val create : rows:int -> cols:int -> seed:int -> t
(** Requires [0 < rows <= 255] and [0 < cols <= 65535]. *)

val add : t -> key:int -> w:int -> unit (* lint: allow D11 oracle: test/test_sketch.ml "agms f2 accuracy" *)

val second_moment : t -> float
(** Median-of-rows F2 estimate. [0.] for an empty sketch. *)

val merge : t -> t -> t (* lint: allow D11 oracle: test/test_sketch.ml "packed kernel edge cases" *)
(** Raises [Failure] on mismatched parameters. *)

val sub : t -> t -> t (* lint: allow D11 oracle: test/test_sketch.ml "packed kernels cross both forms" *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] on malformed input. *)

(** {2 Packed kernels} — as {!Count_min.merge_packed} and friends. *)

val merge_packed : string -> string -> string
(** [to_string (merge (of_string a) (of_string b))]. *)

val sub_packed : string -> string -> string
(** [to_string (sub (of_string a) (of_string b))]. *)

val singleton : rows:int -> cols:int -> seed:int -> int -> string
(** The packed sketch of one insert of the key with weight 1. *)

val max_bytes : rows:int -> cols:int -> int
(** Serialized-size cap (dense layout). *)
