type t = int64

let digits = 16

let of_int64 x = x

let to_int64 x = x

(* SplitMix64-style finalizer as an avalanching hash. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let hash_host host = mix (Int64.of_int (host + 0x5151))

let hash_name name =
  let d = Digest.string name in
  (* Take the first 8 bytes of the MD5. *)
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.(logor (shift_left !acc 8) (of_int (Char.code d.[i])))
  done;
  !acc

let digit id i =
  assert (i >= 0 && i < digits);
  let shift = (digits - 1 - i) * 4 in
  Int64.to_int (Int64.logand (Int64.shift_right_logical id shift) 0xFL)

let prefix_len a b =
  let rec go i = if i >= digits then digits else if digit a i = digit b i then go (i + 1) else i in
  go 0

(* Unsigned comparison of int64 values. *)
let ucompare a b =
  let flip x = Int64.add x Int64.min_int in
  Int64.compare (flip a) (flip b)

let compare_ring = ucompare

let equal = Int64.equal

let distance a b =
  let d = Int64.sub b a in
  (* The short way around: min(d, 2^64 - d) as unsigned magnitudes. *)
  let neg = Int64.neg d in
  if ucompare d neg <= 0 then d else neg
