(** Deterministic seeded hashing for the sketch family.

    Every sketch draws its randomness from these mixers and nothing else:
    the same (seed, item) pair hashes identically on every run, every
    compiler, and every shard count, which is what makes sketch partials
    byte-identical under the repository's determinism contract. All
    outputs are non-negative 62-bit values (the native-int sign bit is
    cleared), so callers can reduce them with [mod] or [land] freely. *)

val hash_int : seed:int -> int -> int
(** Hash one integer item under [seed]. Distinct seeds give independent
    hash functions over the same items (the per-row functions of a
    Count-Min or AGMS sketch). *)

val hash_str : seed:int -> string -> int
(** FNV-1a over the bytes, folded with [seed] and finalized with {!mix}.
    Depends only on the string contents. *)

val row_seed : seed:int -> row:int -> int
(** Derive the seed for one sketch row from the sketch-level seed.
    [row_seed ~seed ~row:0] differs from the plain [seed], so a row-0
    hash never aliases a caller's direct [hash_int ~seed]. *)
