module Topology = Mortar_net.Topology
module Treeset = Mortar_overlay.Treeset
module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs

type group = {
  key : string;
  phys : string;
  source : string;
  op : Mortar_core.Op.spec;
  window : float;
  publishers : int array;
  specs : Spec.t list;
}

type placement = {
  group : group;
  root : int;
  treeset : Treeset.t;
  cost : float;
}

type ctx = {
  topo : Topology.t;
  coords : Mortar_util.Vec.t array;
  model : Cost.model;
  bf : int;
  degree : int;
  candidates : int;
  seed : int;
  mutable n_evals : int;
}

let ctx ~topo ~coords ?(model = Cost.default) ?(bf = 16) ?(degree = 2) ?(candidates = 3)
    ?(seed = 0) () =
  { topo; coords; model; bf; degree; candidates; seed; n_evals = 0 }

let group_specs specs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = Spec.canonical_key s in
      Hashtbl.replace tbl k (s :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    specs;
  Hashtbl.fold (fun k ss acc -> (k, ss) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (key, ss) ->
         let ss = List.sort (fun a b -> String.compare a.Spec.name b.Spec.name) ss in
         let s0 = List.hd ss in
         {
           key;
           phys = Spec.physical_name s0;
           source = s0.Spec.source;
           op = s0.Spec.op;
           window = s0.Spec.window;
           publishers = s0.Spec.publishers;
           specs = ss;
         })

let with_publishers g pubs =
  let pubs = Array.to_list pubs |> List.sort_uniq compare |> Array.of_list in
  if Array.length pubs = 0 then invalid_arg "Place.with_publishers: empty publisher set";
  { g with publishers = pubs }

let subscribers g =
  List.map (fun (s : Spec.t) -> s.Spec.subscriber) g.specs |> List.sort_uniq compare

(* Seed the per-candidate tree construction from (seed, phys, root) only:
   identical inputs rebuild byte-identical trees, on any shard count and
   in any evaluation order. *)
let root_seed ctx g root =
  let h = Digest.string (Printf.sprintf "%d|%s|%d" ctx.seed g.phys root) in
  let v = ref 0 in
  for i = 0 to 7 do
    v := ((!v lsl 8) lor Char.code h.[i]) land max_int
  done;
  !v

let build_treeset ctx g root =
  let nodes =
    Array.to_list g.publishers |> List.filter (fun p -> p <> root) |> Array.of_list
  in
  let rng = Rng.create (root_seed ctx g root) in
  if Array.length nodes = 0 then
    Treeset.random rng ~bf:ctx.bf ~d:ctx.degree ~root ~nodes
  else Treeset.plan rng ~coords:ctx.coords ~bf:ctx.bf ~d:ctx.degree ~root ~nodes

(* Candidate roots: the [candidates] publishers with the smallest summed
   latency to a (deterministic, stride-sampled) target subset of the
   group — cheap latency medoids — plus any subscribers that are
   publishers themselves (a co-located root makes fan-out free). The root
   operator is always placed on a publisher so the physical query's
   participant set is exactly the publisher set. *)
let candidate_roots ctx g =
  let pubs = g.publishers in
  let n = Array.length pubs in
  let stride = max 1 (n / 128) in
  let targets = ref [] in
  let i = ref (n - 1) in
  while !i >= 0 do
    targets := pubs.(!i) :: !targets;
    i := !i - stride
  done;
  let targets = !targets in
  let scored =
    Array.to_list pubs
    |> List.map (fun p ->
           let s =
             List.fold_left (fun acc q -> acc +. Topology.latency ctx.topo p q) 0.0 targets
           in
           (s, p))
    |> List.sort (fun (a, pa) (b, pb) ->
           match Float.compare a b with 0 -> compare pa pb | c -> c)
  in
  let rec take k = function
    | (_, p) :: rest when k > 0 -> p :: take (k - 1) rest
    | _ -> []
  in
  let medoids = take ctx.candidates scored in
  let pub_subs =
    List.filter (fun s -> Array.exists (fun p -> p = s) pubs) (subscribers g)
  in
  List.sort_uniq compare (medoids @ pub_subs)

let slots usage h = Option.value (Hashtbl.find_opt usage h) ~default:0

let feasible ctx ~usage ts =
  List.for_all (fun h -> slots usage h < ctx.model.op_budget) (Cost.interior_load ts)

(* Build and cost every candidate root's tree set, cheapest first (ties
   on the smaller root). The cheapest budget-feasible one wins, falling
   back to the cheapest overall when the budget is saturated everywhere
   (soft constraint: better an overloaded host than an unserved query). *)
let place_group ctx ~usage ?force_root g =
  let cands = match force_root with Some r -> [ r ] | None -> candidate_roots ctx g in
  let subs = subscribers g in
  let scored =
    List.map
      (fun root ->
        ctx.n_evals <- ctx.n_evals + 1;
        let ts = build_treeset ctx g root in
        let cost =
          Cost.treeset_cost ~op:g.op ctx.topo ~window:g.window ts
          +. Cost.fanout_cost ~op:g.op ctx.topo ~window:g.window ~root subs
        in
        (cost, root, ts))
      cands
    |> List.sort (fun (a, ra, _) (b, rb, _) ->
           match Float.compare a b with 0 -> compare ra rb | c -> c)
  in
  let cost, root, treeset =
    match List.find_opt (fun (_, _, ts) -> feasible ctx ~usage ts) scored with
    | Some c -> c
    | None -> List.hd scored
  in
  { group = g; root; treeset; cost }

let charge usage p =
  List.iter (fun h -> Hashtbl.replace usage h (slots usage h + 1)) (Cost.interior_load p.treeset)

let discharge usage p =
  List.iter
    (fun h ->
      let v = slots usage h - 1 in
      if v <= 0 then Hashtbl.remove usage h else Hashtbl.replace usage h v)
    (Cost.interior_load p.treeset)

let plan ctx ~usage specs =
  let evals0 = ctx.n_evals in
  let use = Hashtbl.create 64 in
  List.iter (fun (h, c) -> Hashtbl.replace use h c) usage;
  let placements =
    List.map
      (fun g ->
        let p = place_group ctx ~usage:use g in
        charge use p;
        p)
      (group_specs specs)
  in
  if !Obs.enabled then Obs.incr ~by:(ctx.n_evals - evals0) "planner.evals";
  placements
