(** Lloyd's k-means with k-means++ seeding.

    Mortar's physical dataflow planner recursively clusters network
    coordinates and places operators at cluster centroids (§3.1). The
    planner asks for exactly [bf] clusters per recursion level (the
    paper picks k per level by X-Means; see DESIGN's substitution
    table), so plain k-means is all it needs. *)

type result = {
  centroids : Mortar_util.Vec.t array;
  assignment : int array; (** [assignment.(i)] is the cluster of point [i]. *)
}

val cluster : Mortar_util.Rng.t -> k:int -> Mortar_util.Vec.t array -> result
(** [cluster rng ~k points] runs k-means++ seeding followed by at most 50
    Lloyd iterations, stopping early once assignments stabilise.
    Requires [1 <= k]. When [k >= Array.length points], each point gets its
    own cluster. Empty clusters are re-seeded on the farthest point. *)

val buckets : result -> int list array
(** [(buckets r).(c)] is the point indices assigned to cluster [c], in
    increasing order; one pass over the assignment builds them all. *)

val medoid_of : Mortar_util.Vec.t array -> int list -> int
(** [medoid_of points idxs] is the member of [idxs] closest to the centroid
    of those members — used to pick a real node to host an operator.
    Requires a non-empty list. *)
