type payload =
  | Data of {
      query : string;
      seqno : int;
      tree : int;
      summary : Summary.t;
      visited : (int * int) list;
      path : int list;
      ttl_down : int;
      digest : string;
    }
  | Heartbeat of { digest : string option }
  | Reconcile_request of { installed : (string * int * int) list;
                           removed : (string * int) list }
  | Reconcile_reply of { installed : (string * int * int) list;
                         removed : (string * int) list }
  | Install of {
      meta : Query.meta;
      members : (int * Query.node_view) list;
      edges : (int * int) list;
      age : float;
    }
  | Remove of { name : string; seqno : int }
  | View_request of { name : string }
  | View_reply of { meta : Query.meta; view : Query.node_view option; age : float }
  | Adopt of { query : string; seqno : int; tree : int }
  | Result_fwd of { query : string; slot : int; value : Value.t; count : int; age : float }
  | Reliable of { token : int; inner : payload }
  | Ack of { token : int }

let set_size installed removed =
  List.fold_left (fun acc (n, _, _) -> acc + String.length n + 8) 0 installed
  + List.fold_left (fun acc (n, _) -> acc + String.length n + 4) 0 removed

let rec wire_size = function
  | Data { query; summary; visited; path; _ } ->
    28 + String.length query + Summary.wire_size summary + (8 * List.length visited)
    + (4 * List.length path)
  | Heartbeat { digest } -> 24 + (match digest with Some d -> String.length d | None -> 0)
  | Reconcile_request { installed; removed } | Reconcile_reply { installed; removed } ->
    24 + set_size installed removed
  | Install { meta; members; edges; _ } ->
    24 + Query.meta_wire_size meta
    + List.fold_left (fun acc (_, v) -> acc + 4 + Query.view_wire_size v) 0 members
    + (8 * List.length edges)
  | Remove { name; _ } -> 24 + String.length name
  | View_request { name } -> 24 + String.length name
  | Adopt { query; _ } -> 24 + String.length query + 8
  | Result_fwd { query; value; _ } -> 40 + String.length query + Value.wire_size value
  | View_reply { meta; view; _ } ->
    24 + Query.meta_wire_size meta
    + (match view with Some v -> Query.view_wire_size v | None -> 0)
  | Reliable { inner; _ } -> 8 + wire_size inner
  | Ack _ -> 16

let rec kind = function
  | Data _ -> "data"
  | Heartbeat _ -> "heartbeat"
  | Result_fwd _ -> "result"
  | Reliable { inner; _ } -> kind inner
  | Reconcile_request _ | Reconcile_reply _ | Install _ | Remove _ | View_request _
  | View_reply _ | Adopt _ | Ack _ ->
    "control"
