(* D10 positive: environment reads are hidden knobs. *)

let verbose () = Sys.getenv_opt "VERBOSE" <> None

let home () = Sys.getenv "HOME"

let shell () = Unix.getenv "SHELL"
