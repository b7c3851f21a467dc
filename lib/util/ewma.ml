(* Weight of each new sample: 10 %, the paper's §4.3 footnote. *)
let alpha = 0.1

type t = {
  mutable current : float option;
  mutable count : int;
}

let create () = { current = None; count = 0 }

let update t x =
  t.count <- t.count + 1;
  match t.current with
  | None -> t.current <- Some x
  | Some v -> t.current <- Some (((1.0 -. alpha) *. v) +. (alpha *. x))

let value t = t.current

let value_or t default = Option.value t.current ~default

let samples t = t.count
