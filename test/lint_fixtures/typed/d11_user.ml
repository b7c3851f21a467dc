(* D11 fixture: callers inside the linted library. [label_only] is only
   read as a record field, which is not a call of the value. *)

module A = D11_api

let by_alias = D11_api.via_dune_alias 1
let by_local_alias = A.via_local_alias 1
let by_let_module = let module B = D11_api in B.via_let_module 1
let by_open = let open D11_api in via_open 1
let by_field (r : D11_api.r) = r.D11_api.label_only

module Apply (X : sig
  val via_functor : int -> int
end) =
struct
  let applied = X.via_functor 1
end

module Applied = Apply (D11_whole)
