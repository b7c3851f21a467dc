module Index = Mortar_core.Index
module Summary = Mortar_core.Summary
module Obs = Mortar_obs.Obs

type result = { prov : (int * int) list; closed_at : float }

type window_state = { mutable count : int; mutable prov : (int * int) list }

type t = {
  slide : float;
  buffer : int Bsort.t; (* each tuple's true slot *)
  windows : (int, window_state) Hashtbl.t;
  mutable high_slot : int; (* highest timestamp slot seen from BSort *)
  on_result : result -> unit;
}

(* The fixed reorder-buffer size of §5. *)
let bsort_capacity = 5000

let create ~slide ~on_result =
  assert (slide > 0.0);
  {
    slide;
    buffer = Bsort.create ~capacity:bsort_capacity;
    windows = Hashtbl.create 64;
    high_slot = min_int;
    on_result;
  }

let window t slot =
  match Hashtbl.find_opt t.windows slot with
  | Some w -> w
  | None ->
    let w = { count = 0; prov = [] } in
    Hashtbl.replace t.windows slot w;
    w

let close t ~now slot =
  match Hashtbl.find_opt t.windows slot with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.windows slot;
    if !Obs.enabled then begin
      Obs.incr "central.windows_closed";
      Obs.observe "central.window_count" (float_of_int w.count);
      Obs.trace ~t:now (Obs.Window_close { slot; count = w.count })
    end;
    t.on_result { prov = w.prov; closed_at = now }

(* A tuple released from the reorder buffer: credit it to its window, and
   close every window that the (presumed ordered) stream has moved past. *)
let absorb t ~now (ts, true_slot) =
  let slot = Index.slot ~slide:t.slide ts in
  let w = window t slot in
  w.count <- w.count + 1;
  w.prov <- Summary.merge_prov w.prov [ (true_slot, 1) ];
  if slot > t.high_slot then begin
    let closable =
      Hashtbl.fold (fun s _ acc -> if s < slot then s :: acc else acc) t.windows []
      |> List.sort compare
    in
    List.iter (close t ~now) closable;
    t.high_slot <- slot
  end

let push t ~now ~ts ~true_slot =
  match Bsort.push t.buffer ~ts true_slot with
  | Some released -> absorb t ~now released
  | None -> ()

let drain t ~now =
  List.iter (absorb t ~now) (Bsort.flush t.buffer);
  let remaining =
    Hashtbl.fold (fun s _ acc -> s :: acc) t.windows [] |> List.sort compare
  in
  List.iter (close t ~now) remaining
