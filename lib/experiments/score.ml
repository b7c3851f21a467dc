type cell = { mutable best : int; mutable total : int; mutable first_at : float }

type t = (int, cell) Hashtbl.t

let create () : t = Hashtbl.create 64

let offer t ~at ~slot n =
  match Hashtbl.find_opt t slot with
  | None ->
    Hashtbl.replace t slot { best = n; total = n; first_at = at };
    true
  | Some c ->
    c.total <- c.total + n;
    c.first_at <- Float.min c.first_at at;
    if n > c.best then begin
      c.best <- n;
      true
    end
    else false

let of_prov prov =
  let t = create () in
  List.iter
    (fun (at, p) -> List.iter (fun (slot, n) -> ignore (offer t ~at ~slot n)) p)
    prov;
  t

let slots t = List.sort Int.compare (Hashtbl.fold (fun s _ acc -> s :: acc) t [])

let get f t slot = Option.fold ~none:0 ~some:f (Hashtbl.find_opt t slot)

let best = get (fun c -> c.best)

let total = get (fun c -> c.total)

let overcounted t ~publishers = List.filter (fun s -> best t s > publishers) (slots t)

let first_at t slot = Option.map (fun c -> c.first_at) (Hashtbl.find_opt t slot)

let mean count ~denom slots =
  match slots with
  | [] -> nan
  | _ ->
    let d = float_of_int denom in
    List.fold_left (fun acc s -> acc +. (float_of_int (min (count s) denom) /. d)) 0.0 slots
    /. float_of_int (List.length slots)
