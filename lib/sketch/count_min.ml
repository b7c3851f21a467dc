type t = Codec.grid

let kind = Codec.grid_kind ~magic:'C' ~name:"count-min" ~rows_label:"depth" ~cols_label:"width"

let create ~depth ~width ~seed = Codec.grid_create kind ~rows:depth ~cols:width ~seed

let[@lint.hot] cell ~width ~seed ~row key =
  (row * width) + (Hash.hash_int ~seed:(Hash.row_seed ~seed ~row) key mod width)

let[@lint.hot] add (t : t) ~key ~w =
  let cells = t.cells in
  for row = 0 to t.rows - 1 do
    let i = cell ~width:t.cols ~seed:t.seed ~row key in
    Array.unsafe_set cells i (Array.unsafe_get cells i + w)
  done

let[@lint.hot] query (t : t) ~key =
  let cells = t.cells in
  let best = ref max_int in
  for row = 0 to t.rows - 1 do
    let c = Array.unsafe_get cells (cell ~width:t.cols ~seed:t.seed ~row key) in
    if c < !best then best := c
  done;
  if !best = max_int then 0 else !best

let total (t : t) =
  let acc = ref 0 in
  for i = 0 to t.cols - 1 do
    acc := !acc + t.cells.(i)
  done;
  !acc

let merge a b = Codec.grid_merge kind a b

let sub a b = Codec.grid_sub kind a b

(* Wire layout: 'C' depth:u8 width:u16 seed:i64 tag:u8, then the
   {!Codec} i32 grid — dense cells or sparse index/value pairs. *)
let max_bytes ~depth ~width = Codec.max_bytes kind.layout ~n:(depth * width)

let to_string t = Codec.grid_to_string kind t

let of_string s = Codec.grid_of_string kind s

let merge_packed a b = Codec.combine kind.layout Codec.Add a b

let sub_packed a b = Codec.combine kind.layout Codec.Sub a b

(* One unit cell per row, each in its own row's index range, so the
   entries come out ascending and never collide. *)
let singleton ~depth ~width ~seed key =
  let o = Codec.grid_alloc kind ~rows:depth ~cols:width ~seed ~nnz:depth in
  for row = 0 to depth - 1 do
    Codec.put_cell kind.layout o ~k:row (cell ~width ~seed ~row key) 1
  done;
  Bytes.unsafe_to_string o
