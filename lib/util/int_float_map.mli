(** An int-keyed map to unboxed floats on two sorted dense arrays.

    Keys sit in ascending order in an [int array] and are found by binary
    search; values sit in a flat [float array] beside them, so a binding
    costs two words and no box. The map starts with no arrays at all and
    allocates eight slots on its first {!replace}, doubling when full —
    the peer keeps one per query instance (its evicted-window marks), and
    most hold a few dozen bindings. Iteration is in key order. *)

type t

val create : unit -> t

val length : t -> int (* lint: allow D11 oracle: test/test_util.ml "int_float_map = Hashtbl model" *)

val mem : t -> int -> bool

val replace : t -> int -> float -> unit

val remove_stale : t -> now:float -> horizon:float -> unit
(** Drop every binding whose value [v] has [now -. v > horizon], keeping
    the rest in order. Allocation-free. *)

val to_list : t -> (int * float) list (* lint: allow D11 oracle: test/test_util.ml "int_float_map = Hashtbl model" *)
(** Bindings in ascending key order. *)

val search : int array -> int -> int -> int
(** [search keys n key] looks for [key] in the ascending prefix
    [keys.(0 .. n-1)]: its index when present, otherwise [-(i + 1)] where
    [i] is the index it would be inserted at. Shared with the peer's
    heartbeat partner set, which keeps its keys the same way. *)
