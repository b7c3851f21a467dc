type ('k, 'v) t = { size : int; mutable tbl : ('k, 'v) Hashtbl.t option }

let create size = { size; tbl = None }

let allocated t = Option.is_some t.tbl

let length t = match t.tbl with None -> 0 | Some h -> Hashtbl.length h

let find_opt t k = match t.tbl with None -> None | Some h -> Hashtbl.find_opt h k

let mem t k = match t.tbl with None -> false | Some h -> Hashtbl.mem h k

let replace t k v =
  match t.tbl with
  | Some h -> Hashtbl.replace h k v
  | None ->
    let h = Hashtbl.create t.size in
    Hashtbl.replace h k v;
    t.tbl <- Some h

let remove t k = match t.tbl with None -> () | Some h -> Hashtbl.remove h k

let iter f t = match t.tbl with None -> () | Some h -> Hashtbl.iter f h

let fold f t init = match t.tbl with None -> init | Some h -> Hashtbl.fold f h init
