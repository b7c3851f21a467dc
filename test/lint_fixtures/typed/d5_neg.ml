(* D5 negative: suppressed polymorphic comparison on a float record. *)

type reading = { volts : float; ticks : int }

let same a b =
  (* lint: allow D5 fixture; both operands produced by the same pure fn *)
  a.volts = b.volts

let _ = same { volts = 1.0; ticks = 0 } { volts = 1.0; ticks = 0 }

(* Not flagged: a type that shares its name with d5_pos.ml's
   float-bearing [sample] but holds no float. *)
type sample = int

let same_sample (a : sample) b = a = b
