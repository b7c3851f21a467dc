(* D5 positive: polymorphic compare/equality touching float-bearing
   records. [sample] is collected by the cross-file type phase. *)

type sample = { mean : float; n : int }

let same_mean a b = a.mean = b.mean

let order (a : sample) b = compare (a : sample) b

let is_zero s = s = { mean = 0.0; n = 0 }

(* Not flagged: explicit float comparators. *)
let order_ok a b = Float.compare a.mean b.mean

let same_n a b = a.n = b.n

(* A float-bearing record of another unit, reached through an alias. *)
module N = D5_neg

let same_reading (a : N.reading) b = a = b
