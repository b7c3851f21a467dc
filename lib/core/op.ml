module Sketch = Mortar_sketch

type spec =
  | Sum
  | Count
  | Avg
  | Min
  | Max
  | Top_k of { k : int; key : string }
  | Union of { cap : int }
  | Entropy
  | Histogram of { lo : float; hi : float; bins : int }
  | Quantile of { q : float; lo : float; hi : float; bins : int }
  | Custom of { name : string; args : Value.t list }
  | Sketch_count_min of { depth : int; width : int; seed : int }
  | Sketch_agms of { rows : int; cols : int; seed : int }
  | Sketch_hll of { b : int; seed : int }

type impl = {
  init : Value.t;
  lift : Value.t -> Value.t;
  merge : Value.t -> Value.t -> Value.t;
  finalize : Value.t -> Value.t;
}

let registry : (string, Value.t list -> impl) Hashtbl.t = Hashtbl.create 8

let register name f = Hashtbl.replace registry name f

let registered name = Hashtbl.mem registry name

let id x = x

let sum_impl =
  {
    init = Value.Float 0.0;
    lift = (fun v -> Value.Float (Value.to_float v));
    merge = (fun a b -> Value.Float (Value.to_float a +. Value.to_float b));
    finalize = id;
  }

let count_impl =
  {
    init = Value.Int 0;
    lift = (fun _ -> Value.Int 1);
    merge = (fun a b -> Value.Int (Value.to_int a + Value.to_int b));
    finalize = id;
  }

let avg_impl =
  let sum v = Value.to_float (Value.field v "sum") in
  let count v = Value.to_int (Value.field v "count") in
  let make s c = Value.Record [ ("sum", Value.Float s); ("count", Value.Int c) ] in
  {
    init = make 0.0 0;
    lift = (fun v -> make (Value.to_float v) 1);
    merge = (fun a b -> make (sum a +. sum b) (count a + count b));
    finalize =
      (fun v ->
        let c = count v in
        if c = 0 then Value.Null else Value.Float (sum v /. float_of_int c));
  }

(* Min and Max use Null as the merge identity. *)
let extremum better =
  {
    init = Value.Null;
    lift = id;
    merge =
      (fun a b ->
        match (a, b) with
        | Value.Null, x | x, Value.Null -> x
        | a, b -> if better (Value.compare a b) then a else b);
    finalize = id;
  }

let min_impl = extremum (fun c -> c <= 0)

let max_impl = extremum (fun c -> c >= 0)

let top_k_impl ~k ~key =
  assert (k > 0);
  let rank v =
    match Value.field_opt v key with Some x -> Value.to_float x | None -> neg_infinity
  in
  let take_k l =
    let sorted = List.sort (fun a b -> Float.compare (rank b) (rank a)) l in
    List.filteri (fun i _ -> i < k) sorted
  in
  {
    init = Value.List [];
    lift = (fun v -> Value.List [ v ]);
    merge = (fun a b -> Value.List (take_k (Value.to_list a @ Value.to_list b)));
    finalize = id;
  }

let union_impl ~cap =
  let take l = if cap <= 0 then l else List.filteri (fun i _ -> i < cap) l in
  {
    init = Value.List [];
    lift = (fun v -> Value.List [ v ]);
    merge = (fun a b -> Value.List (take (Value.to_list a @ Value.to_list b)));
    finalize = id;
  }

(* Entropy partial: a record mapping each category to its count. *)
let entropy_impl =
  let category v =
    match v with Value.Str s -> s | other -> Value.show other
  in
  let counts v = match v with Value.Record fields -> fields | _ -> [] in
  let add fields cat n =
    let current =
      match List.assoc_opt cat fields with Some x -> Value.to_int x | None -> 0
    in
    (cat, Value.Int (current + n)) :: List.remove_assoc cat fields
  in
  {
    init = Value.Record [];
    lift = (fun v -> Value.Record [ (category v, Value.Int 1) ]);
    merge =
      (fun a b ->
        Value.Record
          (List.fold_left
             (fun acc (cat, n) -> add acc cat (Value.to_int n))
             (counts a) (counts b)));
    finalize =
      (fun v ->
        let fields = counts v in
        let total = List.fold_left (fun acc (_, n) -> acc + Value.to_int n) 0 fields in
        if total = 0 then Value.Float 0.0
        else begin
          let h =
            List.fold_left
              (fun acc (_, n) ->
                let p = float_of_int (Value.to_int n) /. float_of_int total in
                if p > 0.0 then acc -. (p *. (log p /. log 2.0)) else acc)
              0.0 fields
          in
          Value.Float h
        end);
  }

let histogram_impl ~lo ~hi ~bins =
  assert (bins > 0 && hi > lo);
  let width = (hi -. lo) /. float_of_int bins in
  let bin_of x =
    let i = int_of_float ((x -. lo) /. width) in
    if i < 0 then 0 else if i >= bins then bins - 1 else i
  in
  let counts v = Array.of_list (List.map Value.to_int (Value.to_list v)) in
  let zip f a b =
    Value.List (Array.to_list (Array.mapi (fun i x -> Value.Int (f x b.(i))) a))
  in
  {
    init = Value.List (List.init bins (fun _ -> Value.Int 0));
    lift =
      (fun v ->
        let i = bin_of (Value.to_float v) in
        Value.List (List.init bins (fun j -> Value.Int (if i = j then 1 else 0))));
    merge = (fun a b -> zip ( + ) (counts a) (counts b));
    finalize = id;
  }

(* The quantile sketch shares the histogram partial; finalize walks the
   cumulative counts to the target rank and answers with the bin centre. *)
let quantile_impl ~q ~lo ~hi ~bins =
  assert (q > 0.0 && q < 1.0);
  let base = histogram_impl ~lo ~hi ~bins in
  let width = (hi -. lo) /. float_of_int bins in
  {
    base with
    finalize =
      (fun v ->
        let counts = List.map Value.to_int (Value.to_list v) in
        let total = List.fold_left ( + ) 0 counts in
        if total = 0 then Value.Null
        else begin
          let target = q *. float_of_int total in
          let rec walk i acc = function
            | [] -> hi
            | c :: rest ->
              let acc = acc + c in
              if float_of_int acc >= target then lo +. ((float_of_int i +. 0.5) *. width)
              else walk (i + 1) acc rest
          in
          Value.Float (walk 0 0 counts)
        end);
  }

(* ------------------------------------------------------------------ *)
(* Sketch family: partials travel as packed byte strings (Value.Str),
   [Null] is the merge identity (so boundary summaries stay one byte),
   and any codec or parameter mismatch surfaces as a Value.Type_error —
   a query fault the peer counts and drops, never a crash. *)

(* The item identity a sketch hashes. Single-field records unwrap so a
   [map] pre-transform projecting one field sketches the field's value,
   not its record wrapping; everything else falls back to the canonical
   rendering, which is deterministic across runs and shards. *)
let rec sketch_key v =
  match v with
  | Value.Null -> 0x5EED0
  | Value.Bool false -> 0x5EED1
  | Value.Bool true -> 0x5EED2
  | Value.Int i -> i
  | Value.Float f -> Int64.to_int (Int64.bits_of_float f) land max_int
  | Value.Str s -> Sketch.Hash.hash_str ~seed:0 s
  | Value.Record [ (_, inner) ] -> sketch_key inner
  | (Value.List _ | Value.Record _) as v -> Sketch.Hash.hash_str ~seed:0 (Value.show v)

let sketch_fault msg = Value.type_error "sketch: %s" msg

let sketch_bytes = function
  | Value.Str s -> s
  | v -> Value.type_error "expected a packed sketch, got %s" (Value.show v)

(* Merge and lift run on the packed bytes themselves (the [Sketch]
   kernels), so no grid or register array is built per partial; only
   finalize decodes. A kernel failure — malformed bytes, mismatched
   parameters, 32-bit overflow — faults the query. *)
let sketch_ops ~singleton ~merge =
  let guard f = try Value.Str (f ()) with Failure msg -> sketch_fault msg in
  let lift v = guard (fun () -> singleton (sketch_key v)) in
  let merge_v a b =
    match (a, b) with
    | Value.Null, x | x, Value.Null -> x
    | a, b -> guard (fun () -> merge (sketch_bytes a) (sketch_bytes b))
  in
  (lift, merge_v)

let sketch_decode of_string v =
  let s = sketch_bytes v in
  try of_string s with Failure msg -> sketch_fault msg

let sketch_count_min_impl ~depth ~width ~seed =
  let module Cm = Sketch.Count_min in
  let lift, merge = sketch_ops ~singleton:(Cm.singleton ~depth ~width ~seed) ~merge:Cm.merge_packed in
  (* Finalize keeps the packed sketch: the subscriber owns the point
     queries (and the exact total via Count_min.total). *)
  { init = Value.Null; lift; merge; finalize = id }

let sketch_agms_impl ~rows ~cols ~seed =
  let module Agms = Sketch.Agms in
  let lift, merge =
    sketch_ops ~singleton:(Agms.singleton ~rows ~cols ~seed) ~merge:Agms.merge_packed
  in
  let finalize = function
    | Value.Null -> Value.Float 0.0
    | v -> Value.Float (Agms.second_moment (sketch_decode Agms.of_string v))
  in
  { init = Value.Null; lift; merge; finalize }

let sketch_hll_impl ~b ~seed =
  let module Hll = Sketch.Hll in
  let lift, merge = sketch_ops ~singleton:(Hll.singleton ~b ~seed) ~merge:Hll.merge_packed in
  let finalize = function
    | Value.Null -> Value.Float 0.0
    | v -> Value.Float (Hll.estimate (sketch_decode Hll.of_string v))
  in
  { init = Value.Null; lift; merge; finalize }

let compile = function
  | Sum -> sum_impl
  | Count -> count_impl
  | Avg -> avg_impl
  | Min -> min_impl
  | Max -> max_impl
  | Top_k { k; key } -> top_k_impl ~k ~key
  | Union { cap } -> union_impl ~cap
  | Entropy -> entropy_impl
  | Histogram { lo; hi; bins } -> histogram_impl ~lo ~hi ~bins
  | Quantile { q; lo; hi; bins } -> quantile_impl ~q ~lo ~hi ~bins
  | Custom { name; args } -> (
    match Hashtbl.find_opt registry name with
    | Some f -> f args
    | None -> invalid_arg (Printf.sprintf "Op.compile: unregistered operator %s" name))
  | Sketch_count_min { depth; width; seed } -> sketch_count_min_impl ~depth ~width ~seed
  | Sketch_agms { rows; cols; seed } -> sketch_agms_impl ~rows ~cols ~seed
  | Sketch_hll { b; seed } -> sketch_hll_impl ~b ~seed

let spec_wire_size spec =
  match spec with
  | Custom { name; args } ->
    String.length name + List.fold_left (fun acc v -> acc + Value.wire_size v) 4 args
  | Sketch_count_min _ | Sketch_agms _ -> 16 (* op tag + two dims + seed *)
  | Sketch_hll _ -> 13 (* op tag + precision + seed *)
  | _ -> 8

(* Serialized cap of one partial, for operators whose state has one: the
   dense codec bound plus Value.Str framing. The planner charges sketch
   results these true fixed bytes instead of the flat scalar default;
   unbounded operators (lists, per-category records) answer None. *)
let state_wire_size = function
  | Sketch_count_min { depth; width; _ } -> Some (4 + Sketch.Count_min.max_bytes ~depth ~width)
  | Sketch_agms { rows; cols; _ } -> Some (4 + Sketch.Agms.max_bytes ~rows ~cols)
  | Sketch_hll { b; _ } -> Some (4 + Sketch.Hll.max_bytes ~b)
  | Sum | Count | Avg | Min | Max | Top_k _ | Union _ | Entropy | Histogram _ | Quantile _
  | Custom _ ->
    None
