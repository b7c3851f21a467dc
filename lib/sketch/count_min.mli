(** Count-Min sketch (Cormode & Muthukrishnan): a [depth] × [width] grid
    of counters answering point frequency queries with one-sided error.

    The partial is {e linear}: [merge] adds grids cell-wise, exactly
    like Sum. [query] overestimates by at most [e/width · N] with
    probability [1 - e^-depth] ([N] = total weight); [total] (the sum of
    one row) is the exact inserted weight, so one Count-Min partial
    answers both "how many tuples" and "how often did key k appear".

    All hashing is seeded through {!Hash}; two sketches interoperate iff
    they share [depth], [width] and [seed]. *)

type t

val create : depth:int -> width:int -> seed:int -> t
(** Requires [0 < depth <= 255] and [0 < width <= 65535]. *)

val add : t -> key:int -> w:int -> unit
(** Add weight [w] (may be negative) under item [key]. In place. *)

val query : t -> key:int -> int
(** Point estimate for [key]: min over rows, never an underestimate for
    non-negative inserts. *)

val total : t -> int
(** Exact total inserted weight (row-0 sum — the sketch is linear). *)

val merge : t -> t -> t (* lint: allow D11 oracle: test/test_sketch.ml "packed kernels cross both forms" *)
(** Cell-wise sum into a fresh sketch. Commutative and associative.
    Raises [Failure] on mismatched parameters. *)

val to_string : t -> string
(** Fixed-layout codec: dense cells, or index/value pairs when the grid
    is sparse enough that they are smaller. The choice depends only on
    the cell contents, so equal sketches always serialize identically. *)

val of_string : string -> t
(** Raises [Failure] on malformed input. [of_string (to_string t)]
    observably equals [t]. The reference the packed kernels below are
    tested against. *)

(** {2 Packed kernels}

    Work on the wire form directly, never unpacking a grid. Each equals
    its decode → operate → encode composition byte for byte and raises
    [Failure] on exactly the inputs that composition rejects. *)

val merge_packed : string -> string -> string
(** [to_string (merge (of_string a) (of_string b))]. *)

val singleton : depth:int -> width:int -> seed:int -> int -> string
(** [singleton ~depth ~width ~seed key] is the packed sketch of one
    insert of [key] with weight 1. *)

val max_bytes : depth:int -> width:int -> int
(** Serialized-size cap (the dense layout): what a planner should charge
    a Count-Min result regardless of how much data fed it. *)
