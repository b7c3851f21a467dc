type t = {
  mutable keys : int array; (* ascending in [0, n) *)
  mutable vals : float array; (* vals.(i) is bound to keys.(i) *)
  mutable n : int;
}

let create () = { keys = [||]; vals = [||]; n = 0 }

let length t = t.n

(* Top-level and closed over nothing, so a probe allocates no closure. *)
let[@lint.hot] rec search_range keys key lo hi =
  if lo > hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let k = keys.(mid) in
    if k = key then mid
    else if k < key then search_range keys key (mid + 1) hi
    else search_range keys key lo (mid - 1)

let[@lint.hot] search keys n key = search_range keys key 0 (n - 1)

let[@lint.hot] mem t key = search t.keys t.n key >= 0

let grow t =
  let cap = max 8 (2 * Array.length t.keys) in
  let keys = Array.make cap 0 and vals = Array.make cap 0.0 in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.keys <- keys;
  t.vals <- vals

let replace t key v =
  let i = search t.keys t.n key in
  if i >= 0 then t.vals.(i) <- v
  else begin
    let i = -(i + 1) in
    if t.n = Array.length t.keys then grow t;
    Array.blit t.keys i t.keys (i + 1) (t.n - i);
    Array.blit t.vals i t.vals (i + 1) (t.n - i);
    t.keys.(i) <- key;
    t.vals.(i) <- v;
    t.n <- t.n + 1
  end

let remove_stale t ~now ~horizon =
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let v = t.vals.(i) in
    if not (now -. v > horizon) then begin
      t.keys.(!j) <- t.keys.(i);
      t.vals.(!j) <- v;
      incr j
    end
  done;
  t.n <- !j

let to_list t = List.init t.n (fun i -> (t.keys.(i), t.vals.(i)))
