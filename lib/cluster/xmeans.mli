(** X-Means: k-means with BIC-driven selection of the number of clusters
    (Pelleg & Moore, ICML 2000).

    The Mortar prototype "uses the X-Means data clustering algorithm to
    perform planning" (§7). X-Means starts from [k_min] clusters and
    repeatedly tries to split each cluster in two, keeping the split when
    the Bayesian Information Criterion improves, until [k_max] is reached
    or no split helps. *)

val bic : Mortar_util.Vec.t array -> Kmeans.result -> float (* lint: allow D11 test-only, deletion deferred: test/test_cluster_coords.ml "xmeans bic ordering" *)
(** BIC score of a clustering under the identical-spherical-Gaussian model
    of the X-Means paper. Higher is better. *)

val cluster : (* lint: allow D11 test-only, deletion deferred: test/test_cluster_coords.ml "xmeans finds three blobs" *)
  Mortar_util.Rng.t ->
  k_min:int ->
  k_max:int ->
  Mortar_util.Vec.t array ->
  Kmeans.result
(** [cluster rng ~k_min ~k_max points] runs X-Means. The result's [k] is
    the number of centroids it settled on, between [k_min] and [k_max]. *)
