(** Per-tuple expressions for selection and projection.

    Mortar queries apply {e content} operators — [select] filters and [map]
    projections — at the stream source before windowed aggregation (the
    Wi-Fi query of §7.4 runs a [select] on MAC address at each sniffer).
    Expressions are evaluated against a record payload; non-record scalars
    expose themselves under the field name ["value"]. *)

type binop = Add | Sub | Mul | Div | Mod

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Field of string
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Neg of t

val eval : t -> Value.t -> Value.t (* lint: allow D11 oracle: test/test_core_data.ml "expr eval" *)
(** Evaluate against a payload. Arithmetic coerces to float unless both
    sides are [Int]. @raise Value.Type_error on type mismatches. *)

val eval_bool : t -> Value.t -> bool (* lint: allow D11 oracle: test/test_core_data.ml "expr eval" *)

type transform =
  | Select of t (** Keep the tuple iff the predicate holds. *)
  | Map of (string * t) list (** Rebuild the payload from named expressions. *)

val apply : transform list -> Value.t -> Value.t option
(** Run a transform pipeline; [None] when a [Select] rejects. *)

val pp_transform : Format.formatter -> transform -> unit

val wire_size : t -> int
