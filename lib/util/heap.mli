(** A mutable binary min-heap with a user-supplied ordering.

    Used by the discrete-event engine (events keyed by time) and by Dijkstra
    in the topology layer. Not thread safe. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] makes an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool (* lint: allow D11 oracle: test/test_util.ml "heap empty" *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option (* lint: allow D11 oracle: test/test_util.ml "heap peek stable" *)
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit (* lint: allow D11 test-only, deletion deferred: test/test_util.ml "heap clear" *)
