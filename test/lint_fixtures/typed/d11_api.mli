(* D11 fixture: one export per case. The callers live in d11_user.ml
   (same library), d11_tests/ (test-scoped) and d11_outside/ (outside
   the lint roots). *)

type r = { label_only : int }

val no_caller : int -> int
val test_only : int -> int
val label_only : r -> int
val via_dune_alias : int -> int
val via_local_alias : int -> int
val via_let_module : int -> int
val via_open : int -> int
val via_outside : int -> int
val allowed : int -> int (* lint: allow D11 oracle: test/test_lint.ml "typed fixture golden" *)
