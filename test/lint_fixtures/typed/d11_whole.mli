(* D11 fixture: a module passed whole to a functor; its exports are
   used through the functor parameter, never by name. *)

val via_functor : int -> int
