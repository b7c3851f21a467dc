type t = { tb : float; te : float }

let eps = 1e-9

let make ~tb ~te =
  if tb >= te then invalid_arg "Index.make: tb must be < te";
  { tb; te }

let of_slot ~slide i =
  let f = float_of_int i in
  { tb = f *. slide; te = (f +. 1.0) *. slide }

let slot ~slide time = int_of_float (floor (time /. slide))

let duration t = t.te -. t.tb

let equal a b = abs_float (a.tb -. b.tb) < eps && abs_float (a.te -. b.te) < eps

let overlaps a b = a.tb < b.te -. eps && b.tb < a.te -. eps

let intersect a b =
  if overlaps a b then Some { tb = max a.tb b.tb; te = min a.te b.te } else None

let compare_by_start a b =
  let c = Float.compare a.tb b.tb in
  if c <> 0 then c else Float.compare a.te b.te
