(** Pastry-style node identifiers.

    64-bit ids interpreted as 16 hexadecimal digits on a circular
    namespace, as in Pastry (Rowstron & Druschel, Middleware 2001) — the
    substrate under SDIMS and FreePastry that the paper compares against
    (§7.2.3). Ids are compared by shared hex-digit prefix length (routing
    table rows) and by circular numerical distance (leaf sets). *)

type t

val digits : int
(** 16 hex digits. *)

val of_int64 : int64 -> t

val to_int64 : t -> int64

val hash_host : int -> t
(** Deterministic id for a simulated host (avalanching hash). *)

val hash_name : string -> t
(** Key for a query/attribute name (MD5-based). *)

val digit : t -> int -> int
(** [digit id i] is the i-th hex digit, most significant first. *)

val prefix_len : t -> t -> int
(** Number of leading hex digits shared; [digits] when equal. *)

val distance : t -> t -> int64
(** Circular distance on the 2^64 namespace (always the short way,
    non-negative as an unsigned magnitude fitting in 63 bits or
    [Int64.max_int] when antipodal-ish). *)

val compare_ring : t -> t -> int
(** Total order by unsigned id value. *)

val equal : t -> t -> bool
