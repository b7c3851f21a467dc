(* lint: allow D1 nothing here reads the clock *)
let x = 1
