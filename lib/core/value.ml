type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Record of (string * t) list

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec pp ppf = function
  | Null -> Format.fprintf ppf "null"
  | Bool b -> Format.fprintf ppf "%b" b
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | List l ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
      l
  | Record fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp v))
      fields

let show v = Format.asprintf "%a" pp v

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v -> type_error "expected number, got %s" (show v)

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | v -> type_error "expected int, got %s" (show v)

let to_bool = function
  | Bool b -> b
  | v -> type_error "expected bool, got %s" (show v)

let to_string = function
  | Str s -> s
  | v -> type_error "expected string, got %s" (show v)

let to_list = function
  | List l -> l
  | v -> type_error "expected list, got %s" (show v)

let field_opt v name =
  match v with
  | Record fields -> List.assoc_opt name fields
  | _ -> None

let field v name =
  match v with
  | Record fields -> (
    match List.assoc_opt name fields with
    | Some x -> x
    | None -> type_error "missing field %s in %s" name (show v))
  | _ -> type_error "expected record with field %s, got %s" name (show v)

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | List _ -> 4
  | Record _ -> 5

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | (Int _ | Float _), (Int _ | Float _) -> Float.compare (to_float a) (to_float b)
  | Str x, Str y -> String.compare x y
  | List x, List y -> List.compare compare x y
  | Record x, Record y ->
    let sort fields = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) fields in
    List.compare
      (fun (k1, v1) (k2, v2) ->
        let c = String.compare k1 k2 in
        if c <> 0 then c else compare v1 v2)
      (sort x) (sort y)
  | _ -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let rec wire_size = function
  | Null -> 1
  | Bool _ -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Str s -> 4 + String.length s
  | List l -> List.fold_left (fun acc v -> acc + wire_size v) 4 l
  | Record fields ->
    List.fold_left (fun acc (k, v) -> acc + String.length k + 1 + wire_size v) 4 fields
