type t = float array

let zero n = Array.make n 0.0

let dim = Array.length

let add a b = Array.mapi (fun i x -> x +. b.(i)) a

let sub a b = Array.mapi (fun i x -> x -. b.(i)) a

let scale k a = Array.map (fun x -> k *. x) a

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm a = sqrt (dot a a)

let dist_sq a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let dist a b = sqrt (dist_sq a b)

let unit_or a ~fallback =
  let n = norm a in
  if n < 1e-9 then fallback else scale (1.0 /. n) a

let centroid vs =
  match vs with
  | [] -> invalid_arg "Vec.centroid: empty list"
  | v :: _ ->
    let acc = zero (dim v) in
    let acc = List.fold_left add acc vs in
    scale (1.0 /. float_of_int (List.length vs)) acc
