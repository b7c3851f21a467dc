(* D7 negative: this [cell] is immutable, although d7_cell_a.ml declares
   a mutable record of the same name. Types are told apart by their full
   path, so capturing this one is not flagged. *)

module Par = Mortar_par.Par

type cell = { n : int }

let read pool (c : cell) = Par.Pool.run pool ~n:4 (fun i -> ignore (c.n + i))
