(* Weight of each new sample: 10 %, the paper's §4.3 footnote. *)
let alpha = 0.1

(* Floats only, so the record is flat and an update allocates nothing.
   [samples] is an exact count (floats hold integers to 2^53). *)
type t = {
  mutable current : float;
  mutable samples : float;
}

let create () = { current = 0.0; samples = 0.0 }

let update t x =
  t.samples <- t.samples +. 1.0;
  if Float.equal t.samples 1.0 then t.current <- x
  else t.current <- ((1.0 -. alpha) *. t.current) +. (alpha *. x)

let value t = if Float.equal t.samples 0.0 then None else Some t.current

let[@inline] value_or t default = if Float.equal t.samples 0.0 then default else t.current

let samples t = int_of_float t.samples
