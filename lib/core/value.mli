(** Dynamically typed stream values.

    Mortar queries are compiled at runtime from the Mortar Stream Language,
    so tuple payloads and operator partial states are dynamically typed.
    [t] covers scalars, lists, and records; operator implementations use
    the checked accessors and raise {!Type_error} on mismatches, which the
    peer runtime reports as a query fault rather than crashing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Record of (string * t) list

exception Type_error of string
(** Raised by the checked accessors. *)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [type_error fmt ...] raises {!Type_error} with a formatted message;
    for operator implementations reporting their own shape mismatches. *)

val to_float : t -> float
(** Numeric coercion of [Int] and [Float]. @raise Type_error otherwise. *)

val to_float_opt : t -> float option
(** Total twin of {!to_float}: [None] for non-numeric values. For
    observers (metrics, traces) that must never fail on structured
    results like topk lists or trilat records. *)

val to_int : t -> int

val to_bool : t -> bool

val to_string : t -> string
(** Only [Str]; use {!pp} for display. *)

val to_list : t -> t list

val field : t -> string -> t
(** Record field access. @raise Type_error on missing field or
    non-record. *)

val field_opt : t -> string -> t option

val equal : t -> t -> bool (* lint: allow D11 oracle: test/test_core_data.ml "value compare" *)

val compare : t -> t -> int
(** Total order: structural, with numeric cross-comparison of [Int] and
    [Float]. *)

val wire_size : t -> int
(** Estimated serialized size in bytes, used for bandwidth accounting. *)

val pp : Format.formatter -> t -> unit

val show : t -> string
