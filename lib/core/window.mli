(** Sliding window specifications (§2.2).

    Operators compute over sliding windows: the {e range} is how much data
    each answer summarises, the {e slide} is how often answers are issued.
    Both come in time form (seconds) and tuple-count form. Mortar's tuple
    windows are per-source: the last [n] tuples {e from each source}, not
    the globally last [n] (§4.1). *)

type t =
  | Time of { range : float; slide : float }
  | Tuples of { range : int; slide : int }

val time : range:float -> slide:float -> t
(** @raise Invalid_argument unless [0 < slide] and [slide <= range]. *)

val tuples : range:int -> slide:int -> t
(** @raise Invalid_argument unless [0 < slide] and [slide <= range]. *)

val tumbling : float -> t
(** Time window with [range = slide]. *)

val is_time : t -> bool

val slide_seconds : t -> float (* lint: allow D11 oracle: test/test_core_data.ml "window validation" *)
(** The slide for time windows. @raise Invalid_argument for tuple
    windows. *)

val pp : Format.formatter -> t -> unit
