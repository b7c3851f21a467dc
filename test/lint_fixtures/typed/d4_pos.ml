(* D4 positive: catch-all handlers swallowing exceptions. *)

let parse s = try Some (int_of_string s) with _ -> None

let guarded f = try f () with _ | Not_found -> ()

(* A variable handler catches everything just the same. *)
let logged f = try f () with e -> prerr_endline (Printexc.to_string e)
