module Rng = Mortar_util.Rng
module Obs = Mortar_obs.Obs

type id = int

type decision = { drop : bool; extra_delay : float }

(* A condition applies to messages from a host in [a] to a host in [b];
   symmetric conditions also match the reverse direction. *)
type scope = { a : bool array; b : bool array; sym : bool }

type effect_ =
  | Cut
  | Loss of float
  | Bursty of { p_enter : float; p_exit : float; loss_good : float; loss_bad : float }
  | Delay of { extra : float; prob : float }

type condition = { cid : id; scope : scope; eff : effect_ }

(* The condition list and id counter live behind refs shared by every
   shard view (below): a fault window installed by the control schedule
   is visible to all shards, while randomness and Gilbert–Elliott chain
   state stay per-view so concurrent shards never race and each shard's
   draw stream is independent of the others. *)
type t = {
  hosts : int;
  rng : Rng.t;
  (* An association list keeps evaluation order deterministic (insertion
     order) and is cheap at the handful of conditions a scenario uses. *)
  conditions : condition list ref; (* oldest first *)
  next_id : int ref;
  bursty_state : (int * int * int, bool ref) Hashtbl.t; (* (cid, src, dst) -> in bad state *)
}

let create ~hosts ~rng () =
  {
    hosts;
    rng;
    conditions = ref [];
    next_id = ref 0;
    bursty_state = Hashtbl.create 64;
  }

let shard_view t ~rng =
  {
    hosts = t.hosts;
    rng;
    conditions = t.conditions;
    next_id = t.next_id;
    bursty_state = Hashtbl.create 64;
  }

let set_of t members =
  let s = Array.make t.hosts false in
  List.iter
    (fun h ->
      if h < 0 || h >= t.hosts then invalid_arg "Faults: host out of range";
      s.(h) <- true)
    members;
  s

let add t scope eff =
  let cid = !(t.next_id) in
  t.next_id := cid + 1;
  (* Appended so the hot [decide] path walks install order directly. *)
  t.conditions := !(t.conditions) @ [ { cid; scope; eff } ];
  cid

let cut t ~src ~dst = add t { a = set_of t src; b = set_of t dst; sym = false } Cut

let partition t ~a ~b = add t { a = set_of t a; b = set_of t b; sym = true } Cut

let isolate t members =
  let inside = set_of t members in
  let outside = Array.map not inside in
  add t { a = inside; b = outside; sym = true } Cut

let loss t ?(sym = false) ~src ~dst ~rate () =
  add t { a = set_of t src; b = set_of t dst; sym } (Loss rate)

let bursty t ?(sym = false) ?(loss_good = 0.0) ~src ~dst ~p_enter ~p_exit ~loss_bad () =
  add t
    { a = set_of t src; b = set_of t dst; sym }
    (Bursty { p_enter; p_exit; loss_good; loss_bad })

let jitter t ?(sym = false) ?(prob = 1.0) ~src ~dst ~extra () =
  add t { a = set_of t src; b = set_of t dst; sym } (Delay { extra; prob })

let clear t cid = t.conditions := List.filter (fun c -> c.cid <> cid) !(t.conditions)

let clear_all t = t.conditions := []

let active t = List.length !(t.conditions)

let in_scope s ~src ~dst = (s.a.(src) && s.b.(dst)) || (s.sym && s.a.(dst) && s.b.(src))

let pass = { drop = false; extra_delay = 0.0 }

let apply t ~src ~dst acc c =
  if not (in_scope c.scope ~src ~dst) then acc
  else
    match c.eff with
    | Cut ->
      if !Obs.enabled then Obs.incr "faults.cut_drops";
      { acc with drop = true }
    | Loss rate ->
      if Rng.float t.rng 1.0 < rate then begin
        if !Obs.enabled then Obs.incr "faults.loss_drops";
        { acc with drop = true }
      end
      else acc
    | Bursty { p_enter; p_exit; loss_good; loss_bad } ->
      let bad =
        match Hashtbl.find_opt t.bursty_state (c.cid, src, dst) with
        | Some r -> r
        | None ->
          let r = ref false in
          Hashtbl.replace t.bursty_state (c.cid, src, dst) r;
          r
      in
      (* Advance the chain one step per message, then sample the state's
         loss rate. *)
      (if !bad then begin
         if Rng.float t.rng 1.0 < p_exit then bad := false
       end
       else if Rng.float t.rng 1.0 < p_enter then bad := true);
      let rate = if !bad then loss_bad else loss_good in
      if rate > 0.0 && Rng.float t.rng 1.0 < rate then begin
        if !Obs.enabled then Obs.incr "faults.loss_drops";
        { acc with drop = true }
      end
      else acc
    | Delay { extra; prob } ->
      if prob >= 1.0 || Rng.float t.rng 1.0 < prob then begin
        if !Obs.enabled then Obs.incr "faults.delayed";
        { acc with extra_delay = acc.extra_delay +. Rng.float t.rng extra }
      end
      else acc

let decide t ~src ~dst =
  match !(t.conditions) with
  | [] -> pass
  | conditions ->
    List.fold_left (fun acc c -> if acc.drop then acc else apply t ~src ~dst acc c) pass
      conditions
