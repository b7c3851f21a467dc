(** Minimal JSON parser for the observability dumps.

    Just enough to read back what {!Obs.Reg.metrics_lines} and
    {!Obs.Reg.trace_lines} emit: objects, arrays, strings with the
    escapes the emitter produces, numbers, booleans and null. Used by
    [bin/obs_check.exe] and by the tests, which read every registry
    through its dumps. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value (one dump line). *)

val member : string -> t -> t option
(** Field lookup on an [Obj]. *)

(** A parsed metric line. Numeric fields are floats because JSON has no
    integers; [counts] keeps bucket counts in bucket order. *)
type metric =
  | Counter of { scope : string; name : string; value : float }
  | Gauge of { scope : string; name : string; value : float }
  | Histogram of {
      scope : string;
      name : string;
      buckets : float array;
      counts : float array;
      overflow : float;
      sum : float;
      count : float;
    }

val metric_scope : metric -> string

val metric_name : metric -> string

val metric_of_line : string -> (metric, string) result

val event_of_line : string -> (float * Obs.event, string) result (* lint: allow D11 oracle: test/test_obs.ml "obs_json fuzz: decoders never raise" *)
(** Inverse of {!Obs.Reg.trace_lines}'s per-line encoding. *)
