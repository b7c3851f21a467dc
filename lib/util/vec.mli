(** Small Euclidean vectors for network coordinates and clustering.

    Vivaldi coordinates (paper §3.1, §7) and the k-means planner
    operate on low-dimensional points; the paper uses 3-dimensional
    coordinates (footnote 5). Vectors are immutable float arrays. *)

type t = float array

val zero : int -> t (* lint: allow D11 oracle: test/test_cluster_coords.ml "kmeans medoid" *)
(** Zero vector of the given dimension. *)

val dim : t -> int

val add : t -> t -> t (* lint: allow D11 oracle: test/test_cluster_coords.ml "vivaldi in place = vector form" *)

val sub : t -> t -> t (* lint: allow D11 oracle: test/test_cluster_coords.ml "vivaldi in place = vector form" *)

val scale : float -> t -> t

val dot : t -> t -> float (* lint: allow D11 oracle: test/test_util.ml "vec arithmetic" *)

val norm : t -> float (* lint: allow D11 oracle: test/test_util.ml "vec arithmetic" *)
(** Euclidean length. *)

val dist : t -> t -> float
(** Euclidean distance. *)

val dist_sq : t -> t -> float

val unit_or : t -> fallback:t -> t (* lint: allow D11 oracle: test/test_cluster_coords.ml "vivaldi in place = vector form" *)
(** Normalise to unit length, or return [fallback] for (near-)zero input. *)

val centroid : t list -> t
(** Mean of a non-empty list of equal-dimension vectors. *)
