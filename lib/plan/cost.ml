module Topology = Mortar_net.Topology
module Treeset = Mortar_overlay.Treeset
module Tree = Mortar_overlay.Tree

type model = { op_budget : int }

(* Four interior operator slots per host keeps hundreds of physical
   queries from piling their merge work onto a few well-placed hosts at
   10k-host scale. *)
let default = { op_budget = 4 }

(* The estimated wire size of a Msg.Data carrying a scalar summary, and
   of a Result_fwd. *)
let tuple_bytes = 96.0

let result_bytes = 64.0

let tree_cost topo tr =
  List.fold_left
    (fun acc (c, p) -> acc +. Topology.latency topo c p)
    0.0 (Tree.edges tr)

(* Operators with a fixed-size partial (the sketch family) are charged
   their true serialized cap on both tree edges and fan-out links; every
   other operator keeps the flat scalar-summary defaults, so planning of
   pre-sketch workloads is bit-for-bit unchanged. *)
let op_bytes ~default op =
  match Mortar_core.Op.state_wire_size op with
  | Some cap -> float_of_int cap
  | None -> default

let treeset_cost ~op topo ~window ts =
  let trees = Treeset.trees ts in
  let sum = Array.fold_left (fun acc tr -> acc +. tree_cost topo tr) 0.0 trees in
  op_bytes ~default:tuple_bytes op /. window *. sum /. float_of_int (Array.length trees)

let fanout_cost ~op topo ~window ~root subscribers =
  let bytes = op_bytes ~default:result_bytes op in
  List.fold_left
    (fun acc s ->
      if s = root then acc else acc +. (bytes /. window *. Topology.latency topo root s))
    0.0 subscribers

let interior_load ts = Treeset.interior_hosts ts
