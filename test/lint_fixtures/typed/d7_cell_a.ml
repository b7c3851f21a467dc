(* D7 two-unit case, first half: a mutable record named [cell]. The
   positive capture of it is in d7_pos.ml; d7_cell_b.ml declares an
   unrelated immutable [cell]. *)

type cell = { mutable n : int }

let bump c = c.n <- c.n + 1
