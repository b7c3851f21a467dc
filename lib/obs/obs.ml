(* Metrics registry + structured trace. Stdlib only — every library in
   the tree links against this, so it must sit at the bottom of the
   dependency graph. All dump iteration is sorted (lint D3) and every
   stamp is simulation time supplied by the caller (lint D1). *)

type scope = Global | Node of int | Query of string

let scope_to_string = function
  | Global -> "global"
  | Node i -> "node:" ^ string_of_int i
  | Query q -> "query:" ^ q

type event =
  | Tuple_send of { src : int; dst : int; kind : string; size : int }
  | Tuple_recv of { src : int; dst : int; kind : string }
  | Tuple_drop of { src : int; dst : int; kind : string; reason : string }
  | Ts_merge of { node : int; query : string }
  | Orphaned of { node : int; query : string }
  | Reparent of {
      node : int;
      query : string;
      tree : int;
      from_parent : int;
      to_parent : int;
      donor : string;
    }
  | Reconcile_round of { node : int; partner : int }
  | Query_install of { node : int; query : string }
  | Window_close of { slot : int; count : int }
  | Node_down of { node : int }
  | Node_up of { node : int }
  | Crash of { node : int }
  | Fault_start of { fault : string }
  | Fault_stop of { fault : string }
  | Result of {
      query : string;
      slot : int;
      count : int;
      value : float;
      hops : int;
      hops_max : int;
      age : float;
      prov : (int * int) list;
    }

let default_buckets = [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0 |]

(* ------------------------------------------------------------------ *)
(* JSON emission helpers (exported for obs_check and the lint report). *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Shortest representation that round-trips: readable dumps without
   sacrificing byte-stability or parse-back exactness. *)
let json_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* Registries.                                                         *)

type hist_state = {
  edges : float array;
  counts : int array;
  mutable overflow : int;
  mutable sum : float;
  mutable count : int;
}

type metric = Counter of int ref | Gauge of float ref | Hist of hist_state

module Reg = struct
  type t = {
    metrics : (scope * string, metric) Hashtbl.t;
    mutable trace_rev : (float * event) list; (* newest first *)
    mutable trace_len : int;
    mutable dropped : int;
  }

  let trace_cap = 262_144

  let create () = { metrics = Hashtbl.create 64; trace_rev = []; trace_len = 0; dropped = 0 }

  let clear t =
    Hashtbl.reset t.metrics;
    t.trace_rev <- [];
    t.trace_len <- 0;
    t.dropped <- 0

  let mismatch name = invalid_arg ("Obs: metric kind mismatch for " ^ name)

  let incr t ?(scope = Global) ?(by = 1) name =
    match Hashtbl.find_opt t.metrics (scope, name) with
    | Some (Counter r) -> r := !r + by
    | Some _ -> mismatch name
    | None -> Hashtbl.replace t.metrics (scope, name) (Counter (ref by))

  let set_gauge t ?(scope = Global) name v =
    match Hashtbl.find_opt t.metrics (scope, name) with
    | Some (Gauge r) -> r := v
    | Some _ -> mismatch name
    | None -> Hashtbl.replace t.metrics (scope, name) (Gauge (ref v))

  let hist_add h v =
    let n = Array.length h.edges in
    let rec place i = if i >= n then h.overflow <- h.overflow + 1
      else if v <= h.edges.(i) then h.counts.(i) <- h.counts.(i) + 1
      else place (i + 1)
    in
    place 0;
    h.sum <- h.sum +. v;
    h.count <- h.count + 1

  let observe t ?(scope = Global) ?buckets name v =
    match Hashtbl.find_opt t.metrics (scope, name) with
    | Some (Hist h) -> hist_add h v
    | Some _ -> mismatch name
    | None ->
      let edges = Array.copy (Option.value buckets ~default:default_buckets) in
      Array.iteri
        (fun i e -> if i > 0 && e <= edges.(i - 1) then invalid_arg "Obs: buckets not ascending")
        edges;
      let h = { edges; counts = Array.make (Array.length edges) 0; overflow = 0; sum = 0.0; count = 0 } in
      hist_add h v;
      Hashtbl.replace t.metrics (scope, name) (Hist h)

  let trace t ~t:stamp ev =
    if t.trace_len >= trace_cap then t.dropped <- t.dropped + 1
    else begin
      t.trace_rev <- (stamp, ev) :: t.trace_rev;
      t.trace_len <- t.trace_len + 1
    end

  let drain_trace t =
    let evs = List.rev t.trace_rev in
    t.trace_rev <- [];
    t.trace_len <- 0;
    evs

  (* Merge [src] into [into] and reset [src]: counters and histograms
     add, gauges overwrite (callers fold shards in a fixed order, so the
     last writer is deterministic). Used by the sharded runtime to fold
     per-shard registries into the dumped one at epoch-loop exits;
     folding then clearing means repeated folds never double-count. *)
  let fold_into ~into src =
    Hashtbl.iter
      (fun key m ->
        match (m, Hashtbl.find_opt into.metrics key) with
        | Counter r, Some (Counter r') -> r' := !r' + !r
        | Counter r, None -> Hashtbl.replace into.metrics key (Counter (ref !r))
        | Gauge r, Some (Gauge r') -> r' := !r
        | Gauge r, None -> Hashtbl.replace into.metrics key (Gauge (ref !r))
        | Hist h, Some (Hist h') ->
          if Array.length h.edges <> Array.length h'.edges
             || not (Array.for_all2 (fun a b -> Float.equal a b) h.edges h'.edges)
          then mismatch (snd key);
          Array.iteri (fun i c -> h'.counts.(i) <- h'.counts.(i) + c) h.counts;
          h'.overflow <- h'.overflow + h.overflow;
          h'.sum <- h'.sum +. h.sum;
          h'.count <- h'.count + h.count
        | Hist h, None ->
          Hashtbl.replace into.metrics key
            (Hist
               {
                 edges = Array.copy h.edges;
                 counts = Array.copy h.counts;
                 overflow = h.overflow;
                 sum = h.sum;
                 count = h.count;
               })
        | _, Some _ -> mismatch (snd key))
      src.metrics;
    into.dropped <- into.dropped + src.dropped;
    Hashtbl.reset src.metrics;
    src.dropped <- 0

  (* ---------------------------------------------------------------- *)
  (* JSON-lines dumps.                                                 *)

  let floats_array a =
    "[" ^ String.concat "," (Array.to_list (Array.map json_float a)) ^ "]"

  let ints_array a =
    "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

  let metric_line (scope, name) m =
    let head kind =
      Printf.sprintf "{\"metric\":%s,\"scope\":%s,\"name\":%s" (json_string kind)
        (json_string (scope_to_string scope))
        (json_string name)
    in
    match m with
    | Counter r -> Printf.sprintf "%s,\"value\":%d}" (head "counter") !r
    | Gauge r -> Printf.sprintf "%s,\"value\":%s}" (head "gauge") (json_float !r)
    | Hist h ->
      Printf.sprintf "%s,\"buckets\":%s,\"counts\":%s,\"overflow\":%d,\"sum\":%s,\"count\":%d}"
        (head "histogram") (floats_array h.edges) (ints_array h.counts) h.overflow
        (json_float h.sum) h.count

  let metrics_lines t =
    let entries =
      Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.metrics []
      |> List.sort (fun (((sa, na) : scope * string), _) ((sb, nb), _) ->
             let c = compare (scope_to_string sa) (scope_to_string sb) in
             if c <> 0 then c else compare na nb)
    in
    let entries =
      if t.dropped > 0 then entries @ [ ((Global, "obs.trace_dropped"), Counter (ref t.dropped)) ]
      else entries
    in
    List.map (fun (k, m) -> metric_line k m) entries

  let field_i k v = Printf.sprintf "%s:%d" (json_string k) v

  let field_s k v = Printf.sprintf "%s:%s" (json_string k) (json_string v)

  let field_f k v = Printf.sprintf "%s:%s" (json_string k) (json_float v)

  let prov_json prov =
    "["
    ^ String.concat "," (List.map (fun (slot, n) -> Printf.sprintf "[%d,%d]" slot n) prov)
    ^ "]"

  let event_body = function
    | Tuple_send { src; dst; kind; size } ->
      ("tuple_send", [ field_i "src" src; field_i "dst" dst; field_s "kind" kind; field_i "size" size ])
    | Tuple_recv { src; dst; kind } ->
      ("tuple_recv", [ field_i "src" src; field_i "dst" dst; field_s "kind" kind ])
    | Tuple_drop { src; dst; kind; reason } ->
      ( "tuple_drop",
        [ field_i "src" src; field_i "dst" dst; field_s "kind" kind; field_s "reason" reason ] )
    | Ts_merge { node; query } -> ("ts_merge", [ field_i "node" node; field_s "query" query ])
    | Orphaned { node; query } -> ("orphaned", [ field_i "node" node; field_s "query" query ])
    | Reparent { node; query; tree; from_parent; to_parent; donor } ->
      ( "reparent",
        [
          field_i "node" node;
          field_s "query" query;
          field_i "tree" tree;
          field_i "from_parent" from_parent;
          field_i "to_parent" to_parent;
          field_s "donor" donor;
        ] )
    | Reconcile_round { node; partner } ->
      ("reconcile_round", [ field_i "node" node; field_i "partner" partner ])
    | Query_install { node; query } ->
      ("query_install", [ field_i "node" node; field_s "query" query ])
    | Window_close { slot; count } -> ("window_close", [ field_i "slot" slot; field_i "count" count ])
    | Node_down { node } -> ("node_down", [ field_i "node" node ])
    | Node_up { node } -> ("node_up", [ field_i "node" node ])
    | Crash { node } -> ("crash", [ field_i "node" node ])
    | Fault_start { fault } -> ("fault_start", [ field_s "fault" fault ])
    | Fault_stop { fault } -> ("fault_stop", [ field_s "fault" fault ])
    | Result { query; slot; count; value; hops; hops_max; age; prov } ->
      ( "result",
        [
          field_s "query" query;
          field_i "slot" slot;
          field_i "count" count;
          field_f "value" value;
          field_i "hops" hops;
          field_i "hops_max" hops_max;
          field_f "age" age;
          Printf.sprintf "%s:%s" (json_string "prov") (prov_json prov);
        ] )

  let event_line stamp ev =
    let name, fields = event_body ev in
    Printf.sprintf "{\"t\":%s,\"event\":%s%s}" (json_float stamp) (json_string name)
      (String.concat "" (List.map (fun f -> "," ^ f) fields))

  let trace_lines t = List.rev_map (fun (stamp, ev) -> event_line stamp ev) t.trace_rev
end

(* ------------------------------------------------------------------ *)
(* The gated default registry.                                         *)

let enabled = ref false

let default = Reg.create ()

(* Where the module-level wrappers write: [default], except while a
   {!with_sink} body runs. The sharded runtime's resolver routes each
   write to the writing shard's registry (keyed off a domain-local
   context); it is called on the domain doing the write. *)
let sink : (unit -> Reg.t) ref = ref (fun () -> default)

let with_sink resolver f =
  let prev = !sink in
  sink := resolver;
  Fun.protect ~finally:(fun () -> sink := prev) f

let incr ?scope ?by name = if !enabled then Reg.incr (!sink ()) ?scope ?by name

let set_gauge ?scope name v = if !enabled then Reg.set_gauge (!sink ()) ?scope name v

let observe ?scope ?buckets name v =
  if !enabled then Reg.observe (!sink ()) ?scope ?buckets name v

let trace ~t ev = if !enabled then Reg.trace (!sink ()) ~t ev

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)
