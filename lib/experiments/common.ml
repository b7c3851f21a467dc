type experiment = {
  id : string;
  title : string;
  paper_claim : string;
  run : quick:bool -> unit;
}

let header e =
  Printf.printf "\n=== %s: %s ===\n" e.id e.title;
  Printf.printf "paper: %s\n" e.paper_claim

let table ~columns rows_thunk =
  let rows = rows_thunk () in
  let widths =
    List.fold_left
      (fun acc row -> List.mapi (fun i cell -> max (List.nth acc i) (String.length cell)) row)
      (List.map String.length columns)
      rows
  in
  let print_row row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Printf.printf "%s%s  " cell (String.make (max 0 (w - String.length cell)) ' '))
      row;
    print_newline ()
  in
  print_row columns;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let cell_f x = Printf.sprintf "%.2f" x

let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
