type binop = Add | Sub | Mul | Div | Mod

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Const of Value.t
  | Field of string
  | Binop of binop * t * t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Neg of t

let lookup payload name =
  match payload with
  | Value.Record _ -> Value.field payload name
  | scalar when name = "value" -> scalar
  | other ->
    raise (Value.Type_error (Printf.sprintf "no field %s in %s" name (Value.show other)))

let arith op a b =
  match (op, a, b) with
  | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
  | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
  | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
  | Mod, Value.Int x, Value.Int y ->
    if y = 0 then raise (Value.Type_error "mod by zero") else Value.Int (x mod y)
  | Div, Value.Int x, Value.Int y ->
    if y = 0 then raise (Value.Type_error "div by zero") else Value.Int (x / y)
  | Add, a, b -> Value.Float (Value.to_float a +. Value.to_float b)
  | Sub, a, b -> Value.Float (Value.to_float a -. Value.to_float b)
  | Mul, a, b -> Value.Float (Value.to_float a *. Value.to_float b)
  | Div, a, b -> Value.Float (Value.to_float a /. Value.to_float b)
  | Mod, a, b -> Value.Float (Float.rem (Value.to_float a) (Value.to_float b))

let compare_with cmp c =
  match cmp with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec eval expr payload =
  match expr with
  | Const v -> v
  | Field name -> lookup payload name
  | Binop (op, a, b) -> arith op (eval a payload) (eval b payload)
  | Cmp (cmp, a, b) ->
    Value.Bool (compare_with cmp (Value.compare (eval a payload) (eval b payload)))
  | And (a, b) -> Value.Bool (eval_bool a payload && eval_bool b payload)
  | Or (a, b) -> Value.Bool (eval_bool a payload || eval_bool b payload)
  | Not a -> Value.Bool (not (eval_bool a payload))
  | Neg a -> arith Sub (Value.Int 0) (eval a payload)

and eval_bool expr payload = Value.to_bool (eval expr payload)

type transform =
  | Select of t
  | Map of (string * t) list

let apply transforms payload =
  let step payload = function
    | Select predicate -> if eval_bool predicate payload then Some payload else None
    | Map fields ->
      Some (Value.Record (List.map (fun (name, e) -> (name, eval e payload)) fields))
  in
  List.fold_left
    (fun acc tr -> match acc with None -> None | Some p -> step p tr)
    (Some payload) transforms

let rec wire_size = function
  | Const v -> 1 + Value.wire_size v
  | Field f -> 1 + String.length f
  | Binop (_, a, b) | Cmp (_, a, b) | And (a, b) | Or (a, b) -> 2 + wire_size a + wire_size b
  | Not a | Neg a -> 1 + wire_size a
