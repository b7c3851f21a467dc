(** HyperLogLog (Flajolet et al.): [2^b] one-byte registers estimating
    the number of {e distinct} items inserted, with standard error about
    [1.04 / sqrt 2^b] (b = 9 → ~4.6%, b = 11 → ~2.3%).

    Unlike the linear sketches, [merge] is the register-wise {e max} —
    idempotent as well as commutative/associative — so an item observed
    along two paths of a striped multipath tree union counts once. That
    duplicate-insensitivity is what lets distinct-count queries skip the
    time-division machinery entirely. *)

type t

val create : b:int -> seed:int -> t
(** [2^b] registers; requires [4 <= b <= 16]. *)

val add : t -> key:int -> unit
(** Insert an item. In place, idempotent. *)

val estimate : t -> float
(** Distinct-count estimate with the small-range (linear counting)
    correction. [0.] for an empty sketch. *)

val merge : t -> t -> t (* lint: allow D11 oracle: test/test_sketch.ml "packed kernels cross both forms" *)
(** Register-wise max into a fresh sketch; [merge t t] observably equals
    [t]. Raises [Failure] on mismatched parameters. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Failure] on malformed input. *)

(** {2 Packed kernels}

    Work on the wire form directly: a merge of two sparse partials is a
    merge-join over their (index, value) entries and never builds the
    [2^b] register array (2 KiB at b = 11, past the minor heap's
    256-word allocation limit). Each equals its decode → operate →
    encode composition byte for byte and raises [Failure] on exactly the
    inputs that composition rejects. *)

val merge_packed : string -> string -> string
(** [to_string (merge (of_string a) (of_string b))]. *)

val singleton : b:int -> seed:int -> int -> string
(** The packed sketch of one insert of the key. *)

val max_bytes : b:int -> int
(** Serialized-size cap (dense layout: one byte per register). *)
