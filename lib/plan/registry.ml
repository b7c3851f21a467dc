module Query = Mortar_core.Query
module Window = Mortar_core.Window
module Obs = Mortar_obs.Obs

type entry = { mutable placement : Place.placement }

type t = {
  ctx : Place.ctx;
  entries : (string, entry) Hashtbl.t; (* canonical key -> entry *)
  by_name : (string, string) Hashtbl.t; (* logical name -> canonical key *)
  usage : (int, int) Hashtbl.t; (* host -> interior operator slots *)
  seqnos : (string, int) Hashtbl.t;
      (* phys -> last issued seqno; survives removal so a re-admitted
         class supersedes its own tombstones *)
  mutable n_replans : int;
}

type action =
  | Install of {
      phys : string;
      root : int;
      meta : Query.meta;
      treeset : Mortar_overlay.Treeset.t;
      subscribers : int list;
    }
  | Update_fanout of { phys : string; root : int; subscribers : int list }
  | Remove of { phys : string; root : int }
  | Replan of {
      phys : string;
      old_root : int;
      root : int;
      meta : Query.meta;
      treeset : Mortar_overlay.Treeset.t;
      subscribers : int list;
    }

let create ~ctx () =
  {
    ctx;
    entries = Hashtbl.create 32;
    by_name = Hashtbl.create 64;
    usage = Hashtbl.create 64;
    seqnos = Hashtbl.create 32;
    n_replans = 0;
  }

let next_seqno t phys =
  let s = 1 + Option.value (Hashtbl.find_opt t.seqnos phys) ~default:0 in
  Hashtbl.replace t.seqnos phys s;
  s

let meta_of t (p : Place.placement) =
  let g = p.Place.group in
  Query.make_meta ~name:g.Place.phys ~seqno:(next_seqno t g.Place.phys)
    ~source:g.Place.source ~op:g.Place.op
    ~window:(Window.tumbling g.Place.window)
    ~root:p.Place.root
    ~degree:(Mortar_overlay.Treeset.degree p.Place.treeset)
    ~total_nodes:(Array.length g.Place.publishers) ()

let sorted_entries t =
  Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let logical_count t = Hashtbl.length t.by_name

let physical_count t = Hashtbl.length t.entries

let replans t = t.n_replans

let mapping t =
  Hashtbl.fold
    (fun name key acc ->
      match Hashtbl.find_opt t.entries key with
      | None -> acc
      | Some e -> (name, e.placement.Place.group.Place.phys, e.placement.Place.root) :: acc)
    t.by_name []
  |> List.sort compare

let obs_gauges t =
  if !Obs.enabled then begin
    Obs.set_gauge "planner.physical" (float_of_int (physical_count t));
    Obs.set_gauge "planner.logical" (float_of_int (logical_count t))
  end

let merge_specs (g : Place.group) extra =
  {
    g with
    Place.specs =
      List.sort
        (fun (a : Spec.t) b -> String.compare a.Spec.name b.Spec.name)
        (extra @ g.Place.specs);
  }

let add_batch t specs =
  let in_batch = Hashtbl.create 16 in
  List.iter
    (fun (s : Spec.t) ->
      if Hashtbl.mem t.by_name s.Spec.name || Hashtbl.mem in_batch s.Spec.name then
        invalid_arg ("Registry.add_batch: duplicate logical query " ^ s.Spec.name);
      Hashtbl.replace in_batch s.Spec.name ())
    specs;
  let groups = Place.group_specs specs in
  let fresh, joining =
    List.partition (fun (g : Place.group) -> not (Hashtbl.mem t.entries g.Place.key)) groups
  in
  (* Queries joining a live class: bump the refcount, refresh fan-out. *)
  let join_actions =
    List.map
      (fun (g : Place.group) ->
        let e = Hashtbl.find t.entries g.Place.key in
        let p = e.placement in
        let merged = merge_specs p.Place.group g.Place.specs in
        e.placement <- { p with Place.group = merged };
        List.iter
          (fun (s : Spec.t) -> Hashtbl.replace t.by_name s.Spec.name g.Place.key)
          g.Place.specs;
        Update_fanout
          {
            phys = merged.Place.phys;
            root = p.Place.root;
            subscribers = Place.subscribers merged;
          })
      joining
  in
  (* New classes: plan jointly against the already-charged operator load. *)
  let fresh_specs = List.concat_map (fun (g : Place.group) -> g.Place.specs) fresh in
  let install_actions =
    if fresh_specs = [] then []
    else begin
      let seeded =
        Hashtbl.fold (fun h c acc -> (h, c) :: acc) t.usage [] |> List.sort compare
      in
      let planned = Place.plan t.ctx ~usage:seeded fresh_specs in
      List.map
        (fun (p : Place.placement) ->
          let g = p.Place.group in
          Hashtbl.replace t.entries g.Place.key { placement = p };
          List.iter
            (fun (s : Spec.t) -> Hashtbl.replace t.by_name s.Spec.name g.Place.key)
            g.Place.specs;
          Place.charge t.usage p;
          if !Obs.enabled then Obs.incr "planner.installs";
          Install
            {
              phys = g.Place.phys;
              root = p.Place.root;
              meta = meta_of t p;
              treeset = p.Place.treeset;
              subscribers = Place.subscribers g;
            })
        planned
    end
  in
  obs_gauges t;
  install_actions @ join_actions

let handle_loss t ~dead =
  let dead = List.sort_uniq compare dead in
  let is_dead h = List.mem h dead in
  let actions =
    List.concat_map
      (fun (key, e) ->
        let p = e.placement in
        let g = p.Place.group in
        (* A logical query whose subscriber died has no consumer left:
           retire it (and keep it out of every fan-out list) rather than
           have the surviving root forward results into the void. A
           rejoining host re-subscribes through [add_batch]. *)
        let live_specs, dead_specs =
          List.partition
            (fun (s : Spec.t) -> not (is_dead s.Spec.subscriber))
            g.Place.specs
        in
        List.iter (fun (s : Spec.t) -> Hashtbl.remove t.by_name s.Spec.name) dead_specs;
        let retire () =
          List.iter (fun (s : Spec.t) -> Hashtbl.remove t.by_name s.Spec.name) live_specs;
          Hashtbl.remove t.entries key;
          Place.discharge t.usage p;
          (* The peer-level removal ({!Mortar_core.Peer.remove_query})
             multicasts its tombstone at [installed seqno + 1], and our
             counter still sits at the installed seqno. Burn one number
             so a re-admitted class installs strictly above every
             member's recorded removal instead of being dropped as
             stale. *)
          ignore (next_seqno t g.Place.phys);
          if !Obs.enabled then Obs.incr "planner.removes";
          [ Remove { phys = g.Place.phys; root = p.Place.root } ]
        in
        let root_dead = is_dead p.Place.root in
        let survivors =
          Array.to_list g.Place.publishers |> List.filter (fun h -> not (is_dead h))
        in
        if live_specs = [] || survivors = [] then
          (* No consumer, or nothing left to aggregate: retire the class. *)
          retire ()
        else begin
          let g = { g with Place.specs = live_specs } in
          if (not root_dead) && List.length survivors = Array.length g.Place.publishers
          then begin
            (* Placement untouched; refresh the fan-out if a dead
               subscriber was dropped. *)
            e.placement <- { p with Place.group = g };
            if dead_specs = [] then []
            else
              [
                Update_fanout
                  {
                    phys = g.Place.phys;
                    root = p.Place.root;
                    subscribers = Place.subscribers g;
                  };
              ]
          end
          else begin
            let g' = Place.with_publishers g (Array.of_list survivors) in
            Place.discharge t.usage p;
            let p' =
              if root_dead then Place.place_group t.ctx ~usage:t.usage g'
              else Place.place_group t.ctx ~usage:t.usage ~force_root:p.Place.root g'
            in
            Place.charge t.usage p';
            e.placement <- p';
            t.n_replans <- t.n_replans + 1;
            if !Obs.enabled then Obs.incr "planner.replans";
            [
              Replan
                {
                  phys = g'.Place.phys;
                  old_root = p.Place.root;
                  root = p'.Place.root;
                  meta = meta_of t p';
                  treeset = p'.Place.treeset;
                  subscribers = Place.subscribers g';
                };
            ]
          end
        end)
      (sorted_entries t)
  in
  obs_gauges t;
  actions
