(* D2 positive: global randomness, including the cardinal sin. *)

let () = Random.self_init ()

let roll () = Random.int 6

let s = Random.State.make [| 42 |]

(* A module alias names the same global generator. *)
module R = Random

let roll_aliased () = R.int 6
