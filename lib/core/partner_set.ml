let search = Mortar_util.Int_float_map.search

type t = {
  mutable keys : int array; (* ascending in [0, n) *)
  mutable refs : int array;
  mutable last_heard : float array;
  mutable last_confirmed : float array;
  mutable last_reconcile : float array;
  mutable n : int;
}

let create () =
  { keys = [||]; refs = [||]; last_heard = [||]; last_confirmed = [||];
    last_reconcile = [||]; n = 0 }

let length t = t.n

let grow t =
  let cap = max 4 (2 * Array.length t.keys) in
  let ints a = let b = Array.make cap 0 in Array.blit a 0 b 0 t.n; b in
  let floats a = let b = Array.make cap 0.0 in Array.blit a 0 b 0 t.n; b in
  t.keys <- ints t.keys;
  t.refs <- ints t.refs;
  t.last_heard <- floats t.last_heard;
  t.last_confirmed <- floats t.last_confirmed;
  t.last_reconcile <- floats t.last_reconcile

(* Index of [node], inserting a fresh zero-refcount entry (heard now,
   never confirmed, never reconciled) at its sorted position when it is
   absent. *)
let slot t node ~now =
  let i = search t.keys t.n node in
  if i >= 0 then i
  else begin
    let i = -(i + 1) in
    if t.n = Array.length t.keys then grow t;
    let shift a = Array.blit a i a (i + 1) (t.n - i) in
    shift t.keys;
    shift t.refs;
    shift t.last_heard;
    shift t.last_confirmed;
    shift t.last_reconcile;
    t.keys.(i) <- node;
    t.refs.(i) <- 0;
    t.last_heard.(i) <- now;
    t.last_confirmed.(i) <- neg_infinity;
    t.last_reconcile.(i) <- neg_infinity;
    t.n <- t.n + 1;
    i
  end

(* Close the gap at [i] (entry removal). *)
let delete t i =
  let len = t.n - i - 1 in
  Array.blit t.keys (i + 1) t.keys i len;
  Array.blit t.refs (i + 1) t.refs i len;
  Array.blit t.last_heard (i + 1) t.last_heard i len;
  Array.blit t.last_confirmed (i + 1) t.last_confirmed i len;
  Array.blit t.last_reconcile (i + 1) t.last_reconcile i len;
  t.n <- t.n - 1

let retain t node ~now =
  let i = slot t node ~now in
  t.refs.(i) <- t.refs.(i) + 1;
  t.last_heard.(i) <- now

let release t node =
  let i = search t.keys t.n node in
  if i >= 0 then begin
    t.refs.(i) <- t.refs.(i) - 1;
    if t.refs.(i) <= 0 then delete t i
  end

let[@lint.hot] heard t node ~now =
  let i = search t.keys t.n node in
  if i >= 0 then begin
    t.last_heard.(i) <- now;
    t.last_confirmed.(i) <- now
  end

let[@lint.hot] heartbeat t node ~now =
  let i = slot t node ~now in
  t.last_heard.(i) <- now;
  t.last_confirmed.(i) <- now

let reconcile_due t node ~now ~min_gap =
  let i = slot t node ~now in
  if now -. t.last_reconcile.(i) >= min_gap then begin
    t.last_reconcile.(i) <- now;
    true
  end
  else false

let[@lint.hot][@inline] alive t node ~now ~timeout =
  let i = search t.keys t.n node in
  i < 0 || now -. t.last_heard.(i) < timeout

let[@lint.hot][@inline] confirmed_alive t node ~now ~timeout =
  let i = search t.keys t.n node in
  i >= 0 && now -. t.last_confirmed.(i) < timeout

let iter_targets f t =
  for i = 0 to t.n - 1 do
    if t.refs.(i) > 0 then f t.keys.(i)
  done

let sweep t ~now ~horizon =
  let kept = ref 0 in
  for i = 0 to t.n - 1 do
    if t.refs.(i) <= 0 && now -. t.last_heard.(i) > horizon then ()
    else begin
      let j = !kept in
      if j < i then begin
        t.keys.(j) <- t.keys.(i);
        t.refs.(j) <- t.refs.(i);
        t.last_heard.(j) <- t.last_heard.(i);
        t.last_confirmed.(j) <- t.last_confirmed.(i);
        t.last_reconcile.(j) <- t.last_reconcile.(i)
      end;
      kept := j + 1
    end
  done;
  let swept = t.n - !kept in
  t.n <- !kept;
  swept
