type t = Codec.grid

let kind = Codec.grid_kind ~magic:'A' ~name:"agms" ~rows_label:"rows" ~cols_label:"cols"

let create ~rows ~cols ~seed = Codec.grid_create kind ~rows ~cols ~seed

let[@lint.hot] row_hash ~seed ~row key = Hash.hash_int ~seed:(Hash.row_seed ~seed ~row) key

(* One avalanche per row serves both draws: the low bits pick the
   bucket, bit 40 the sign — independent enough after {!Hash.mix} and
   half the hashing cost of two seeded draws per row. *)
let[@lint.hot] sign h w = if (h lsr 40) land 1 = 1 then w else -w

let[@lint.hot] add (t : t) ~key ~w =
  let cs = t.cols in
  let cells = t.cells in
  for row = 0 to t.rows - 1 do
    let h = row_hash ~seed:t.seed ~row key in
    let i = (row * cs) + (h mod cs) in
    Array.unsafe_set cells i (Array.unsafe_get cells i + sign h w)
  done

let second_moment (t : t) =
  let per_row = Array.make t.rows 0.0 in
  for r = 0 to t.rows - 1 do
    let acc = ref 0.0 in
    for c = 0 to t.cols - 1 do
      let x = float_of_int t.cells.((r * t.cols) + c) in
      acc := !acc +. (x *. x)
    done;
    per_row.(r) <- !acc
  done;
  Array.sort Float.compare per_row;
  let n = t.rows in
  if n land 1 = 1 then per_row.(n / 2)
  else (per_row.((n / 2) - 1) +. per_row.(n / 2)) /. 2.0

let merge a b = Codec.grid_merge kind a b

let sub a b = Codec.grid_sub kind a b

(* Same wire discipline as {!Count_min}: 'A' rows:u8 cols:u16 seed:i64
   tag:u8, then the {!Codec} i32 grid. *)
let max_bytes ~rows ~cols = Codec.max_bytes kind.layout ~n:(rows * cols)

let to_string t = Codec.grid_to_string kind t

let of_string s = Codec.grid_of_string kind s

let merge_packed a b = Codec.combine kind.layout Codec.Add a b

let sub_packed a b = Codec.combine kind.layout Codec.Sub a b

let singleton ~rows ~cols ~seed key =
  let o = Codec.grid_alloc kind ~rows ~cols ~seed ~nnz:rows in
  for row = 0 to rows - 1 do
    let h = row_hash ~seed ~row key in
    Codec.put_cell kind.layout o ~k:row ((row * cols) + (h mod cols)) (sign h 1)
  done;
  Bytes.unsafe_to_string o
