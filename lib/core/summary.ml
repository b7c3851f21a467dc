type t = {
  index : Index.t;
  value : Value.t;
  count : int;
  boundary : bool;
  age : float;
  hops : int;
  hops_max : int;
  prov : (int * int) list;
}

let make ~index ~value ~count ?(boundary = false) ?(age = 0.0) ?(hops = 0) ?hops_max
    ?(prov = []) () =
  let hops_max = Option.value hops_max ~default:hops in
  { index; value; count; boundary; age; hops; hops_max; prov }

let boundary ~index ~identity ~count ~age =
  { index; value = identity; count; boundary = true; age; hops = 0; hops_max = 0; prov = [] }

let merge_prov a b =
  List.fold_left
    (fun acc (slot, n) ->
      let current = Option.value (List.assoc_opt slot acc) ~default:0 in
      (slot, current + n) :: List.remove_assoc slot acc)
    a b

let wire_size t =
  (* index (2 floats) + count + age + flags + value + provenance *)
  16 + 4 + 8 + 1 + 3 + Value.wire_size t.value + (12 * List.length t.prov)
