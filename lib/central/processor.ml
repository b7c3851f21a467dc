module Value = Mortar_core.Value
module Op = Mortar_core.Op
module Index = Mortar_core.Index
module Summary = Mortar_core.Summary
module Obs = Mortar_obs.Obs

type result = {
  slot : int;
  value : Value.t;
  count : int;
  prov : (int * int) list;
  closed_at : float;
}

type window_state = {
  mutable partial : Value.t;
  mutable count : int;
  mutable prov : (int * int) list;
}

type t = {
  op : Op.impl;
  slide : float;
  buffer : (int option * Value.t) Bsort.t;
  windows : (int, window_state) Hashtbl.t;
  mutable high_slot : int; (* highest timestamp slot seen from BSort *)
  mutable handlers : (result -> unit) list;
  mutable reported : result list; (* newest first *)
}

(* The fixed reorder-buffer size of §5. *)
let bsort_capacity = 5000

let create ~op ~slide () =
  assert (slide > 0.0);
  {
    op = Op.compile op;
    slide;
    buffer = Bsort.create ~capacity:bsort_capacity;
    windows = Hashtbl.create 64;
    high_slot = min_int;
    handlers = [];
    reported = [];
  }

let on_result t f = t.handlers <- f :: t.handlers

let window t slot =
  match Hashtbl.find_opt t.windows slot with
  | Some w -> w
  | None ->
    let w = { partial = t.op.Op.init; count = 0; prov = [] } in
    Hashtbl.replace t.windows slot w;
    w

let close t ~now slot =
  match Hashtbl.find_opt t.windows slot with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.windows slot;
    let r =
      {
        slot;
        value = t.op.Op.finalize w.partial;
        count = w.count;
        prov = w.prov;
        closed_at = now;
      }
    in
    if !Obs.enabled then begin
      Obs.incr "central.windows_closed";
      Obs.observe "central.window_count" (float_of_int w.count);
      Obs.trace ~t:now (Obs.Window_close { slot; count = w.count })
    end;
    t.reported <- r :: t.reported;
    List.iter (fun f -> f r) t.handlers

(* A tuple released from the reorder buffer: fold it into its window, and
   close every window that the (presumed ordered) stream has moved past. *)
let absorb t ~now (ts, (true_slot, payload)) =
  let slot = Index.slot ~slide:t.slide ts in
  let w = window t slot in
  w.partial <- t.op.Op.merge w.partial (t.op.Op.lift payload);
  w.count <- w.count + 1;
  (match true_slot with
  | Some s -> w.prov <- Summary.merge_prov w.prov [ (s, 1) ]
  | None -> ());
  if slot > t.high_slot then begin
    let closable =
      Hashtbl.fold (fun s _ acc -> if s < slot then s :: acc else acc) t.windows []
      |> List.sort compare
    in
    List.iter (close t ~now) closable;
    t.high_slot <- slot
  end

let push t ~now ~ts ?true_slot payload =
  match Bsort.push t.buffer ~ts (true_slot, payload) with
  | Some released -> absorb t ~now released
  | None -> ()

let drain t ~now =
  List.iter (absorb t ~now) (Bsort.flush t.buffer);
  let remaining =
    Hashtbl.fold (fun s _ acc -> s :: acc) t.windows [] |> List.sort compare
  in
  List.iter (close t ~now) remaining

let results t = List.rev t.reported
