module Value = Mortar_core.Value
module Op = Mortar_core.Op
module Rng = Mortar_util.Rng

type sniffer = { x : float; y : float; floor : int }

(* L-shaped floor plan: a horizontal wing along y in [0, 15], x in [0, 60],
   and a vertical wing along x in [0, 15], y in [0, 60]. *)
let wing_length = 60.0

let wing_width = 15.0

let in_building x y =
  (x >= 0.0 && x <= wing_length && y >= 0.0 && y <= wing_width)
  || (x >= 0.0 && x <= wing_width && y >= 0.0 && y <= wing_length)

let floors = 4

let sniffers_per_floor = 47

let building_sniffers () =
  (* Walk a grid over the L's bounding square and keep in-building points
     until we have [sniffers_per_floor]; the grid pitch is chosen so the L
     contains comfortably more candidates than needed. *)
  let acc = ref [] in
  for floor = 0 to floors - 1 do
    let count = ref 0 in
    let pitch = 6.0 in
    let steps = int_of_float (wing_length /. pitch) + 1 in
    (try
       for i = 0 to steps do
         for j = 0 to steps do
           let x = float_of_int i *. pitch and y = float_of_int j *. pitch in
           if in_building x y && !count < sniffers_per_floor then begin
             acc := { x; y; floor } :: !acc;
             incr count;
             if !count = sniffers_per_floor then raise Exit
           end
         done
       done
     with Exit -> ())
  done;
  Array.of_list (List.rev !acc)

(* The walk: per floor, go along one wing then the other (the L), then take
   the stairs down. Time is split evenly across floors. *)
let l_path ~t ~duration =
  let per_floor = duration /. float_of_int floors in
  let t = max 0.0 (min t (duration -. 1e-6)) in
  let floor_idx = int_of_float (t /. per_floor) in
  let floor = floors - 1 - floor_idx in
  let local = (t -. (float_of_int floor_idx *. per_floor)) /. per_floor in
  (* First half of the floor time: walk down the vertical wing; second
     half: along the horizontal wing. Corridor runs at the wing centre. *)
  let mid = wing_width /. 2.0 in
  if local < 0.5 then begin
    let f = local /. 0.5 in
    (mid, wing_length -. (f *. (wing_length -. mid)), floor)
  end
  else begin
    let f = (local -. 0.5) /. 0.5 in
    (mid +. (f *. (wing_length -. mid)), mid, floor)
  end

let sensitivity_floor = -90.0

let path_loss_exponent = 2.7

let p0 = -40.0 (* dBm at 1 m *)

let floor_penalty = 12.0 (* dB per floor of separation *)

let shadowing_sigma = 4.0

let rssi rng ~sniffer ~x ~y ~floor =
  let dx = sniffer.x -. x and dy = sniffer.y -. y in
  let d = max 1.0 (sqrt ((dx *. dx) +. (dy *. dy))) in
  let floors_apart = abs (sniffer.floor - floor) in
  let signal =
    p0
    -. (10.0 *. path_loss_exponent *. log10 d)
    -. (floor_penalty *. float_of_int floors_apart)
    +. Rng.gaussian rng ~mu:0.0 ~sigma:shadowing_sigma
  in
  if signal >= sensitivity_floor then Some signal else None

let frame rng ~sniffer ~mac ~x ~y ~floor =
  match rssi rng ~sniffer ~x ~y ~floor with
  | None -> None
  | Some signal ->
    Some
      (Value.Record
         [
           ("mac", Value.Str mac);
           ("rssi", Value.Float signal);
           ("x", Value.Float sniffer.x);
           ("y", Value.Float sniffer.y);
           ("floor", Value.Int sniffer.floor);
         ])

let estimate_distance signal = 10.0 ** ((p0 -. signal) /. (10.0 *. path_loss_exponent))

let trilaterate observations =
  match observations with
  | [] -> None
  | _ ->
    let weight signal =
      let d = max 1.0 (estimate_distance signal) in
      1.0 /. (d *. d)
    in
    let wx, wy, wsum =
      List.fold_left
        (fun (wx, wy, wsum) (x, y, signal) ->
          let w = weight signal in
          (wx +. (w *. x), wy +. (w *. y), wsum +. w))
        (0.0, 0.0, 0.0) observations
    in
    if wsum <= 0.0 then None else Some (wx /. wsum, wy /. wsum)

(* The trilat operator: partials are top-3-by-RSSI frame lists (so it can
   merge in-network exactly like topk), finalized to a position record. *)
let trilat_impl _args =
  let rank v =
    match Value.field_opt v "rssi" with
    | Some x -> Value.to_float x
    | None -> neg_infinity
  in
  let take3 l =
    List.sort (fun a b -> Float.compare (rank b) (rank a)) l
    |> List.filteri (fun i _ -> i < 3)
  in
  let to_frames v =
    (* Accept both a single frame record and a list of frames (the output
       of an upstream topk). *)
    match v with
    | Value.List l -> l
    | Value.Record _ -> [ v ]
    | _ -> []
  in
  {
    Op.init = Value.List [];
    lift = (fun v -> Value.List (take3 (to_frames v)));
    merge = (fun a b -> Value.List (take3 (Value.to_list a @ Value.to_list b)));
    finalize =
      (fun v ->
        let obs =
          List.filter_map
            (fun frame ->
              match
                ( Value.field_opt frame "x",
                  Value.field_opt frame "y",
                  Value.field_opt frame "rssi" )
              with
              | Some x, Some y, Some r ->
                Some (Value.to_float x, Value.to_float y, Value.to_float r)
              | _ -> None)
            (Value.to_list v)
        in
        match trilaterate obs with
        | None -> Value.Null
        | Some (x, y) ->
          Value.Record
            [
              ("x", Value.Float x);
              ("y", Value.Float y);
              ("n", Value.Int (List.length obs));
            ]);
  }

let register_trilat () = Op.register "trilat" trilat_impl
