(* D11 fixture: d11_outside/ has a unit with the same short name whose
   [twin_value] is called; that must not count as a call of this one. *)

val twin_value : int
