type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }

let fail msg = failwith ("sketch: " ^ msg)

let need r n = if r.pos + n > String.length r.s then fail "truncated sketch"

let u8 r =
  need r 1;
  let v = String.get_uint8 r.s r.pos in
  r.pos <- r.pos + 1;
  v

let u16 r =
  need r 2;
  let v = String.get_uint16_be r.s r.pos in
  r.pos <- r.pos + 2;
  v

(* Signed 32-bit cell value. *)
let i32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) in
  r.pos <- r.pos + 4;
  v

let seed_at s pos =
  let v64 = String.get_int64_be s pos in
  if Int64.compare v64 0L < 0 || Int64.compare v64 (Int64.of_int max_int) > 0 then
    fail "seed out of range";
  Int64.to_int v64

let i64 r =
  need r 8;
  let v = seed_at r.s r.pos in
  r.pos <- r.pos + 8;
  v

let expect_end r = if r.pos <> String.length r.s then fail "trailing bytes"

(* ------------------------------------------------------------------ *)
(* The packed cell form. *)

type layout = {
  magic : char;
  name : string;
  header : int;
  count_w : int;
  idx_w : int;
  cell_w : int;
  sparse_min : int;
  cell_max : int;
  params : string -> int;
}

(* Widths 1 and 2 are unsigned, width 4 is a signed 32-bit cell. No
   bounds checks: every caller reads inside a length already proved (an
   input's exact length from [validate], or a buffer from [alloc]). *)
let[@inline] byte b p = Char.code (Bytes.unsafe_get b p)

let[@inline] get w b p =
  match w with
  | 1 -> byte b p
  | 2 -> (byte b p lsl 8) lor byte b (p + 1)
  | _ ->
    let x =
      (byte b p lsl 24) lor (byte b (p + 1) lsl 16) lor (byte b (p + 2) lsl 8) lor byte b (p + 3)
    in
    (x lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)

(* Inputs are only ever read, which is what [unsafe_of_string] allows. *)
let[@inline] sget w s p = get w (Bytes.unsafe_of_string s) p

let[@inline] set_byte o p v = Bytes.set o p (Char.unsafe_chr (v land 0xFF))

let[@inline] put w o p v =
  match w with
  | 1 -> set_byte o p v
  | 2 ->
    set_byte o p (v lsr 8);
    set_byte o (p + 1) v
  | _ ->
    if v > 0x7FFFFFFF || v < -0x7FFFFFFF - 1 then fail "cell overflows 32 bits";
    set_byte o p (v asr 24);
    set_byte o (p + 1) (v asr 16);
    set_byte o (p + 2) (v asr 8);
    set_byte o (p + 3) v

let entry_w l = l.idx_w + l.cell_w

let max_bytes l ~n = l.header + (n * l.cell_w)

let sparse_wins l ~n ~nnz = l.count_w + (nnz * entry_w l) < n * l.cell_w

let alloc l ~n ~nnz =
  let sparse = sparse_wins l ~n ~nnz in
  let o =
    Bytes.make (l.header + if sparse then l.count_w + (nnz * entry_w l) else n * l.cell_w) '\000'
  in
  Bytes.set o 0 l.magic;
  if sparse then begin
    Bytes.set o (l.header - 1) '\001';
    put l.count_w o l.header nnz
  end;
  o

let put_cell l o ~k i v =
  if Bytes.get o (l.header - 1) = '\001' then begin
    let pos = l.header + l.count_w + (k * entry_w l) in
    put l.idx_w o pos i;
    put l.cell_w o (pos + l.idx_w) v
  end
  else put l.cell_w o (l.header + (i * l.cell_w)) v

let expect_length len want =
  if len < want then fail "truncated sketch" else if len > want then fail "trailing bytes"

(* Accepts exactly what the sequential decoders accept and returns the
   cell count; every later read of [s] lies inside the length proved
   here. *)
let validate l s =
  let len = String.length s in
  if len < l.header then fail "truncated sketch";
  if s.[0] <> l.magic then fail ("wrong magic byte for " ^ l.name);
  let n = l.params s in
  (match s.[l.header - 1] with
  | '\000' ->
    expect_length len (max_bytes l ~n);
    if l.cell_max < max_int then
      for i = 0 to n - 1 do
        if sget l.cell_w s (l.header + (i * l.cell_w)) > l.cell_max then
          fail (l.name ^ " cell out of range")
      done
  | '\001' ->
    if len < l.header + l.count_w then fail "truncated sketch";
    let nnz = sget l.count_w s l.header in
    if nnz < 0 || nnz > n then fail "bad sparse cell count";
    let body = l.header + l.count_w in
    expect_length len (body + (nnz * entry_w l));
    let prev = ref (-1) in
    for k = 0 to nnz - 1 do
      let pos = body + (k * entry_w l) in
      let i = sget l.idx_w s pos in
      if i <= !prev || i >= n then fail "sparse index out of order";
      prev := i;
      let v = sget l.cell_w s (pos + l.idx_w) in
      if v < l.sparse_min || v > l.cell_max then fail (l.name ^ " cell out of range")
    done
  | _ -> fail ("unknown " ^ l.name ^ " codec tag"));
  n

let is_sparse l s = s.[l.header - 1] = '\001'

type op = Add | Max

let[@inline] apply op x y = match op with Add -> x + y | Max -> if x >= y then x else y

(* Both operands sparse: a merge-join over their (index, value) entries.
   Counts the result's non-zero cells, and writes them into [o] (from
   {!alloc}) unless [o] is empty. Sparse entries may hold zero (the
   decoder accepts that) and linear cells may cancel, so zero results
   are dropped here. *)
let join l op a b o =
  let ew = entry_w l and body = l.header + l.count_w in
  let stop_a = String.length a and stop_b = String.length b in
  let write = Bytes.length o > 0 in
  let sparse_out = write && Bytes.get o (l.header - 1) = '\001' in
  let pa = ref body and pb = ref body and po = ref body and nnz = ref 0 in
  while !pa < stop_a || !pb < stop_b do
    let ia = if !pa < stop_a then sget l.idx_w a !pa else max_int in
    let ib = if !pb < stop_b then sget l.idx_w b !pb else max_int in
    let i = if ia <= ib then ia else ib in
    let x =
      if ia = i then begin
        let v = sget l.cell_w a (!pa + l.idx_w) in
        pa := !pa + ew;
        v
      end
      else 0
    in
    let y =
      if ib = i then begin
        let v = sget l.cell_w b (!pb + l.idx_w) in
        pb := !pb + ew;
        v
      end
      else 0
    in
    let v = apply op x y in
    if v <> 0 then begin
      if sparse_out then begin
        put l.idx_w o !po i;
        put l.cell_w o (!po + l.idx_w) v;
        po := !po + ew
      end
      else if write then put l.cell_w o (l.header + (i * l.cell_w)) v;
      incr nnz
    end
  done;
  !nnz

(* Fold one operand, either form, into the dense cells of [o] in place. *)
let fold_in l op o s ~n =
  let update i v =
    if v <> 0 then begin
      let p = l.header + (i * l.cell_w) in
      put l.cell_w o p (apply op (get l.cell_w o p) v)
    end
  in
  if is_sparse l s then
    for k = 0 to sget l.count_w s l.header - 1 do
      let p = l.header + l.count_w + (k * entry_w l) in
      update (sget l.idx_w s p) (sget l.cell_w s (p + l.idx_w))
    done
  else
    for i = 0 to n - 1 do
      update i (sget l.cell_w s (l.header + (i * l.cell_w)))
    done

let combine l op a b =
  let n = validate l a in
  ignore (validate l b);
  for p = 1 to l.header - 2 do
    if a.[p] <> b.[p] then fail (l.name ^ " merge across mismatched parameters")
  done;
  let o =
    if is_sparse l a && is_sparse l b then begin
      let o = alloc l ~n ~nnz:(join l op a b Bytes.empty) in
      ignore (join l op a b o);
      o
    end
    else begin
      (* A dense operand: one register pass over a dense result, re-packed
         sparse only if that is smaller after all. [~nnz:n] forces the
         dense form (an entry is wider than a cell). *)
      let d = alloc l ~n ~nnz:n in
      if is_sparse l a then fold_in l Add d a ~n
      else Bytes.blit_string a l.header d l.header (n * l.cell_w);
      fold_in l op d b ~n;
      let nnz = ref 0 in
      for i = 0 to n - 1 do
        if get l.cell_w d (l.header + (i * l.cell_w)) <> 0 then incr nnz
      done;
      if not (sparse_wins l ~n ~nnz:!nnz) then d
      else begin
        let o = alloc l ~n ~nnz:!nnz in
        let k = ref 0 in
        for i = 0 to n - 1 do
          let v = get l.cell_w d (l.header + (i * l.cell_w)) in
          if v <> 0 then begin
            put_cell l o ~k:!k i v;
            incr k
          end
        done;
        o
      end
    end
  in
  Bytes.blit_string a 1 o 1 (l.header - 2);
  Bytes.unsafe_to_string o

(* ------------------------------------------------------------------ *)
(* The i32 grid shared by Count-Min and AGMS. *)

type grid = { rows : int; cols : int; seed : int; cells : int array }

type grid_kind = { layout : layout; check : rows:int -> cols:int -> seed:int -> unit }

let grid_kind ~magic ~name ~rows_label ~cols_label =
  let check ~rows ~cols ~seed =
    if rows <= 0 || rows > 255 then fail (Printf.sprintf "%s %s out of range" name rows_label);
    if cols <= 0 || cols > 65535 then fail (Printf.sprintf "%s %s out of range" name cols_label);
    if seed < 0 then fail (name ^ " seed must be non-negative")
  in
  let params s =
    let rows = String.get_uint8 s 1 and cols = String.get_uint16_be s 2 in
    check ~rows ~cols ~seed:(seed_at s 4);
    rows * cols
  in
  {
    layout =
      {
        magic;
        name;
        header = 13;
        count_w = 4;
        idx_w = 4;
        cell_w = 4;
        sparse_min = min_int;
        cell_max = max_int;
        params;
      };
    check;
  }

let grid_create k ~rows ~cols ~seed =
  k.check ~rows ~cols ~seed;
  { rows; cols; seed; cells = Array.make (rows * cols) 0 }

let grid_merge k a b =
  if not (Int.equal a.rows b.rows && Int.equal a.cols b.cols && Int.equal a.seed b.seed) then
    fail (k.layout.name ^ " merge across mismatched parameters");
  { a with cells = Array.mapi (fun i x -> x + b.cells.(i)) a.cells }

let grid_alloc k ~rows ~cols ~seed ~nnz =
  k.check ~rows ~cols ~seed;
  let o = alloc k.layout ~n:(rows * cols) ~nnz in
  Bytes.set_uint8 o 1 rows;
  Bytes.set_uint16_be o 2 cols;
  Bytes.set_int64_be o 4 (Int64.of_int seed);
  o

let grid_to_string k t =
  let nnz = ref 0 in
  for i = 0 to Array.length t.cells - 1 do
    if t.cells.(i) <> 0 then incr nnz
  done;
  let o = grid_alloc k ~rows:t.rows ~cols:t.cols ~seed:t.seed ~nnz:!nnz in
  let kth = ref 0 in
  for i = 0 to Array.length t.cells - 1 do
    let c = t.cells.(i) in
    if c <> 0 then begin
      put_cell k.layout o ~k:!kth i c;
      incr kth
    end
  done;
  Bytes.unsafe_to_string o

let grid_of_string k s =
  let name = k.layout.name in
  let r = reader s in
  if u8 r <> Char.code k.layout.magic then fail ("wrong magic byte for " ^ name);
  let rows = u8 r in
  let cols = u16 r in
  let seed = i64 r in
  let t = grid_create k ~rows ~cols ~seed in
  let n = rows * cols in
  (match u8 r with
  | 0 ->
    for i = 0 to n - 1 do
      t.cells.(i) <- i32 r
    done
  | 1 ->
    let nnz = i32 r in
    if nnz < 0 || nnz > n then fail "bad sparse cell count";
    let prev = ref (-1) in
    for _ = 1 to nnz do
      let i = i32 r in
      if i <= !prev || i >= n then fail "sparse index out of order";
      prev := i;
      t.cells.(i) <- i32 r
    done
  | _ -> fail ("unknown " ^ name ^ " codec tag"));
  expect_end r;
  t
