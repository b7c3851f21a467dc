(* Buckets live in a growable column indexed by the bucket number: the
   only writer (transport byte accounting) stamps with [Engine.now],
   which is non-negative and advances monotonically, so indices are
   dense from 0. A flat [float] column makes a sample an unboxed
   in-place add; an untouched bucket reads as zero. *)
type t = {
  width : float;
  mutable sums : float array;
  mutable last : int; (* highest bucket touched; -1 when none *)
}

let create ~bucket =
  assert (bucket > 0.0);
  { width = bucket; sums = Array.make 64 0.0; last = -1 }

let[@inline] bucket_of t time = int_of_float (floor (time /. t.width))

(* Make bucket [i] addressable and mark it touched. *)
let touch t i =
  let cap = Array.length t.sums in
  if i >= cap then begin
    let sums = Array.make (max (i + 1) (cap * 2)) 0.0 in
    Array.blit t.sums 0 sums 0 cap;
    t.sums <- sums
  end;
  if i > t.last then t.last <- i

(* Inlined so the per-send byte count stays unboxed. *)
let[@inline] incr t ~time x =
  let i = bucket_of t time in
  touch t i;
  t.sums.(i) <- t.sums.(i) +. x

let rows t = Array.to_list (Array.sub t.sums 0 (t.last + 1))

let sum_between t t0 t1 =
  let i0 = bucket_of t t0 and i1 = bucket_of t t1 in
  let sum = ref 0.0 in
  for i = max 0 i0 to min i1 t.last do
    (* Buckets fully inside [t0, t1); the right-edge bucket is included only
       when t1 lands past its start, matching half-open semantics closely
       enough for bucket-granularity reporting. *)
    if float_of_int i *. t.width < t1 then sum := !sum +. t.sums.(i)
  done;
  !sum

let merge_into ~dst src =
  if not (Float.equal dst.width src.width) then
    invalid_arg "Series.merge_into: bucket widths differ";
  if src.last >= 0 then touch dst src.last;
  for i = 0 to src.last do
    dst.sums.(i) <- dst.sums.(i) +. src.sums.(i)
  done
