type t = { b : int; seed : int; regs : Bytes.t }

let check ~b ~seed =
  if b < 4 || b > 16 then Codec.fail "hll precision out of range";
  if seed < 0 then Codec.fail "hll seed must be non-negative"

let create ~b ~seed =
  check ~b ~seed;
  { b; seed; regs = Bytes.make (1 lsl b) '\000' }

(* Rank of the first set bit (1-based) in the low [maxbits] bits of
   [bits]; [maxbits + 1] when they are all zero. Trailing rather than
   leading zeros — the geometric distribution is the same and the loop
   needs no word-width bookkeeping. *)
let[@lint.hot] rho bits maxbits =
  let r = ref 1 in
  let x = ref bits in
  while !r <= maxbits && !x land 1 = 0 do
    incr r;
    x := !x lsr 1
  done;
  if !r > maxbits then maxbits + 1 else !r

(* An item's register is the low [b] bits of its hash, its rank the
   first set bit above them. *)
let[@lint.hot] register ~b h = h land ((1 lsl b) - 1)

let[@lint.hot] rank ~b h = rho (h lsr b) (62 - b)

let[@lint.hot] add t ~key =
  let h = Hash.hash_int ~seed:t.seed key in
  let idx = register ~b:t.b h and r = rank ~b:t.b h in
  if r > Char.code (Bytes.unsafe_get t.regs idx) then
    Bytes.unsafe_set t.regs idx (Char.unsafe_chr r)

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | m -> 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

let estimate t =
  let m = 1 lsl t.b in
  let sum = ref 0.0 and zeros = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get t.regs i) in
    if r = 0 then incr zeros;
    sum := !sum +. ldexp 1.0 (-r)
  done;
  let fm = float_of_int m in
  let raw = alpha m *. fm *. fm /. !sum in
  if raw <= 2.5 *. fm && !zeros > 0 then fm *. log (fm /. float_of_int !zeros) else raw

let merge a b =
  if a.b <> b.b || a.seed <> b.seed then Codec.fail "hll merge across mismatched parameters";
  let m = 1 lsl a.b in
  let regs = Bytes.create m in
  for i = 0 to m - 1 do
    let x = Char.code (Bytes.get a.regs i) and y = Char.code (Bytes.get b.regs i) in
    Bytes.set regs i (Char.chr (if x >= y then x else y))
  done;
  { a with regs }

(* Wire layout: 'H' b:u8 seed:i64 tag:u8, then the raw register bytes
   (tag 0) or non-zero registers as index:u16 value:u8 triples behind a
   u16 count (tag 1), sparse iff strictly smaller. *)
let layout =
  {
    Codec.magic = 'H';
    name = "hll";
    header = 11;
    count_w = 2;
    idx_w = 2;
    cell_w = 1;
    sparse_min = 1;
    cell_max = 63;
    params =
      (fun s ->
        let b = String.get_uint8 s 1 in
        check ~b ~seed:(Codec.seed_at s 2);
        1 lsl b);
  }

let max_bytes ~b = Codec.max_bytes layout ~n:(1 lsl b)

let alloc ~b ~seed ~nnz =
  check ~b ~seed;
  let o = Codec.alloc layout ~n:(1 lsl b) ~nnz in
  Bytes.set_uint8 o 1 b;
  Bytes.set_int64_be o 2 (Int64.of_int seed);
  o

let to_string t =
  let m = 1 lsl t.b in
  let nnz = ref 0 in
  for i = 0 to m - 1 do
    if Bytes.get t.regs i <> '\000' then incr nnz
  done;
  let o = alloc ~b:t.b ~seed:t.seed ~nnz:!nnz in
  let k = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get t.regs i) in
    if r <> 0 then begin
      Codec.put_cell layout o ~k:!k i r;
      incr k
    end
  done;
  Bytes.unsafe_to_string o

let of_string s =
  let r = Codec.reader s in
  if Codec.u8 r <> Char.code 'H' then Codec.fail "not a hyperloglog sketch";
  let b = Codec.u8 r in
  let seed = Codec.i64 r in
  let t = create ~b ~seed in
  let m = 1 lsl b in
  (match Codec.u8 r with
  | 0 ->
    for i = 0 to m - 1 do
      let v = Codec.u8 r in
      if v > 63 then Codec.fail "hll register out of range";
      Bytes.set t.regs i (Char.chr v)
    done
  | 1 ->
    let nnz = Codec.u16 r in
    if nnz > m then Codec.fail "bad sparse register count";
    let prev = ref (-1) in
    for _ = 1 to nnz do
      let i = Codec.u16 r in
      if i <= !prev || i >= m then Codec.fail "sparse index out of order";
      prev := i;
      let v = Codec.u8 r in
      if v = 0 || v > 63 then Codec.fail "hll register out of range";
      Bytes.set t.regs i (Char.chr v)
    done
  | _ -> Codec.fail "unknown hll codec tag");
  Codec.expect_end r;
  t

let merge_packed a b = Codec.combine layout Codec.Max a b

(* One non-zero register: sparse at every legal precision (2 + 3 < 16). *)
let singleton ~b ~seed key =
  let h = Hash.hash_int ~seed key in
  let o = alloc ~b ~seed ~nnz:1 in
  Codec.put_cell layout o ~k:0 (register ~b h) (rank ~b h);
  Bytes.unsafe_to_string o
