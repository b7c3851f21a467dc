(* D1 positive: wall-clock reads outside the bench clock module. *)

let now () = Unix.gettimeofday ()

let cpu () = Sys.time ()

(* Spellings a parse-only lint missed: the qualified Stdlib path, and a
   call through an [open]. *)
let cpu_qualified () = Stdlib.Sys.time ()

open Unix

let opened () = gettimeofday ()
