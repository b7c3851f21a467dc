(* Buckets live in growable columns indexed by the bucket number: the only
   writer (transport byte accounting) stamps with [Engine.now], which is
   non-negative and advances monotonically, so indices are dense from 0.
   Flat [int]/[float] columns make a sample an unboxed in-place add; an
   untouched bucket reads as zero samples summing to zero. *)
type t = {
  width : float;
  mutable counts : int array;
  mutable sums : float array;
  mutable last : int; (* highest bucket touched; -1 when none *)
}

let create ~bucket =
  assert (bucket > 0.0);
  { width = bucket; counts = Array.make 64 0; sums = Array.make 64 0.0; last = -1 }

let[@inline] bucket_of t time = int_of_float (floor (time /. t.width))

(* Make bucket [i] addressable and mark it touched. *)
let touch t i =
  let cap = Array.length t.counts in
  if i >= cap then begin
    let ncap = max (i + 1) (cap * 2) in
    let counts = Array.make ncap 0 and sums = Array.make ncap 0.0 in
    Array.blit t.counts 0 counts 0 cap;
    Array.blit t.sums 0 sums 0 cap;
    t.counts <- counts;
    t.sums <- sums
  end;
  if i > t.last then t.last <- i

let add t ~time x =
  let i = bucket_of t time in
  touch t i;
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(i) <- t.sums.(i) +. x

(* Inlined so the per-send byte count stays unboxed. *)
let[@inline] incr t ~time x =
  let i = bucket_of t time in
  touch t i;
  t.sums.(i) <- t.sums.(i) +. x

type row = { t_start : float; count : int; sum : float; mean : float }

let rows t =
  let rec loop i acc =
    if i < 0 then acc
    else begin
      let count = t.counts.(i) and sum = t.sums.(i) in
      let row =
        {
          t_start = float_of_int i *. t.width;
          count;
          sum;
          mean = (if count = 0 then nan else sum /. float_of_int count);
        }
      in
      loop (i - 1) (row :: acc)
    end
  in
  loop t.last []

let fold_between t t0 t1 =
  let i0 = bucket_of t t0 and i1 = bucket_of t t1 in
  let count = ref 0 and sum = ref 0.0 in
  for i = max 0 i0 to min i1 t.last do
    (* Buckets fully inside [t0, t1); the right-edge bucket is included only
       when t1 lands past its start, matching half-open semantics closely
       enough for bucket-granularity reporting. *)
    if float_of_int i *. t.width < t1 then begin
      count := !count + t.counts.(i);
      sum := !sum +. t.sums.(i)
    end
  done;
  (!count, !sum)

let sum_between t t0 t1 = snd (fold_between t t0 t1)

let merge_into ~dst src =
  if not (Float.equal dst.width src.width) then
    invalid_arg "Series.merge_into: bucket widths differ";
  if src.last >= 0 then touch dst src.last;
  for i = 0 to src.last do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i);
    dst.sums.(i) <- dst.sums.(i) +. src.sums.(i)
  done
