module Rng = Mortar_util.Rng

type id = int

(* A condition applies to messages from a host in [a] to a host in [b];
   symmetric conditions also match the reverse direction. *)
type scope = { a : bool array; b : bool array; sym : bool }

type effect_ =
  | Cut
  | Bursty of { p_enter : float; p_exit : float; loss_good : float; loss_bad : float }

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

let isolate t members =
  let inside = set_of t members in
  let outside = Array.map not inside in
  add t { a = inside; b = outside; sym = true } Cut

let bursty t ?(loss_good = 0.0) ~src ~dst ~p_enter ~p_exit ~loss_bad () =
  add t
    { a = set_of t src; b = set_of t dst; sym = false }
    (Bursty { p_enter; p_exit; loss_good; loss_bad })

let clear t cid = t.conditions := List.filter (fun c -> c.cid <> cid) !(t.conditions)

let active t = List.length !(t.conditions)

let in_scope s ~src ~dst = (s.a.(src) && s.b.(dst)) || (s.sym && s.a.(dst) && s.b.(src))

(* Whether condition [c] drops one message from [src] to [dst]. *)
let drops t ~src ~dst c =
  in_scope c.scope ~src ~dst
  &&
  match c.eff with
  | Cut -> true
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
    rate > 0.0 && Rng.float t.rng 1.0 < rate

(* Conditions are evaluated in install order up to the first drop. *)
let rec any_drops t ~src ~dst = function
  | [] -> false
  | c :: rest -> drops t ~src ~dst c || any_drops t ~src ~dst rest

let decide t ~src ~dst = any_drops t ~src ~dst !(t.conditions)
