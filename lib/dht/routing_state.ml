module Id = Node_id

type t = {
  self : Id.t;
  leaf_radius : int;
  table : Id.t option array array; (* rows x 16 columns *)
  mutable leafset : Id.t list; (* sorted by ring order *)
}

let create ~self ~leaf_radius =
  {
    self;
    leaf_radius;
    table = Array.make_matrix Id.digits 16 None;
    leafset = [];
  }

let self t = t.self

(* The leaf set keeps the [leaf_radius] closest successors and predecessors
   by circular order. We store all candidates sorted by ring position and
   trim around self. *)
let trim_leafset t =
  let sorted = List.sort_uniq Id.compare_ring t.leafset in
  let n = List.length sorted in
  if n <= 2 * t.leaf_radius then t.leafset <- sorted
  else begin
    let arr = Array.of_list sorted in
    (* Index of the first element clockwise after self. *)
    let after =
      let rec find i = if i >= n then 0 else if Id.compare_ring arr.(i) t.self > 0 then i else find (i + 1) in
      find 0
    in
    let keep = Hashtbl.create (2 * t.leaf_radius) in
    for k = 0 to t.leaf_radius - 1 do
      Hashtbl.replace keep (Id.to_int64 arr.((after + k) mod n)) ();
      Hashtbl.replace keep (Id.to_int64 arr.(((after - 1 - k) + (2 * n)) mod n)) ()
    done;
    t.leafset <- List.filter (fun id -> Hashtbl.mem keep (Id.to_int64 id)) sorted
  end

let add t id =
  if not (Id.equal id t.self) then begin
    if not (List.exists (Id.equal id) t.leafset) then begin
      t.leafset <- id :: t.leafset;
      trim_leafset t
    end;
    let row = Id.prefix_len t.self id in
    if row < Id.digits then begin
      let col = Id.digit id row in
      match t.table.(row).(col) with
      | None -> t.table.(row).(col) <- Some id
      | Some existing ->
        (* Prefer the numerically closer entry, a cheap locality proxy. *)
        if Id.compare_ring (Id.of_int64 (Id.distance id t.self)) (Id.of_int64 (Id.distance existing t.self)) < 0
        then t.table.(row).(col) <- Some id
    end
  end

let remove t id =
  t.leafset <- List.filter (fun x -> not (Id.equal x id)) t.leafset;
  Array.iter
    (fun row ->
      Array.iteri
        (fun c entry ->
          match entry with
          | Some x when Id.equal x id -> row.(c) <- None
          | _ -> ())
        row)
    t.table

let known t =
  let seen = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace seen (Id.to_int64 id) id) t.leafset;
  Array.iter
    (fun row ->
      Array.iter (function Some id -> Hashtbl.replace seen (Id.to_int64 id) id | None -> ()) row)
    t.table;
  Hashtbl.fold (fun key id acc -> (key, id) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.map snd

let leaves t = t.leafset

let closest_to key candidates =
  List.fold_left
    (fun best id ->
      match best with
      | None -> Some id
      | Some b ->
        if Id.compare_ring (Id.of_int64 (Id.distance id key)) (Id.of_int64 (Id.distance b key)) < 0
        then Some id
        else best)
    None candidates

let next_hop t key =
  if Id.equal key t.self then None
  else begin
    let all = t.self :: t.leafset in
    (* Leaf-set range: key between the extreme predecessors/successors. *)
    let in_leaf_range =
      match t.leafset with
      | [] -> true
      | _ ->
        let sorted = List.sort Id.compare_ring all in
        let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
        Id.compare_ring key lo >= 0 && Id.compare_ring key hi <= 0
    in
    let by_leaf () =
      match closest_to key all with
      | Some best when not (Id.equal best t.self) -> Some best
      | _ -> None
    in
    if in_leaf_range then by_leaf ()
    else begin
      let row = Id.prefix_len t.self key in
      let table_entry = if row < Id.digits then t.table.(row).(Id.digit key row) else None in
      match table_entry with
      | Some hop -> Some hop
      | None -> (
        (* Rare case: any known node strictly closer to the key. *)
        let better =
          List.filter
            (fun id ->
              Id.compare_ring (Id.of_int64 (Id.distance id key))
                (Id.of_int64 (Id.distance t.self key))
              < 0)
            (known t)
        in
        match closest_to key better with
        | Some hop -> Some hop
        | None -> None)
    end
  end
