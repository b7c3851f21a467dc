type t = {
  alpha : float;
  mutable current : float option;
  mutable count : int;
}

let create ?(alpha = 0.1) () =
  assert (alpha > 0.0 && alpha <= 1.0);
  { alpha; current = None; count = 0 }

let update t x =
  t.count <- t.count + 1;
  match t.current with
  | None -> t.current <- Some x
  | Some v -> t.current <- Some (((1.0 -. t.alpha) *. v) +. (t.alpha *. x))

let value t = t.current

let value_or t default = Option.value t.current ~default

let samples t = t.count
