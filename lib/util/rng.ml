(* The 64-bit state in 8 bytes: reading and writing it through the
   bytes primitives keeps it unboxed, so a draw allocates nothing, and a
   generator costs three words instead of a record and a boxed [int64]. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value fits OCaml's 63-bit int without wrapping. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let[@inline] float_unit t =
  (* 53 random bits into [0, 1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0

let float t bound = float_unit t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let uniform t lo hi = lo +. (float_unit t *. (hi -. lo))

let[@inline] gaussian t ~mu ~sigma =
  (* Box-Muller; guard against log 0. *)
  let u1 = max (float_unit t) 1e-300 in
  let u2 = float_unit t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let pareto t ~xm ~alpha =
  let u = max (float_unit t) 1e-300 in
  xm /. (u ** (1.0 /. alpha))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  assert (k <= Array.length arr);
  let copy = Array.copy arr in
  let n = Array.length copy in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k

let pick t arr = arr.(int t (Array.length arr))

let pick_list t l =
  let n = List.length l in
  List.nth l (int t n)
