(* D12 fixture: one constructor or label per case. The users live in
   d12_user.ml (same library), d11_tests/ (test-scoped) and
   d12_reexport.mli (a re-export of [shape]). *)

type shape =
  | Built
  | Only_matched
  | Test_built
  | Via_reexport
  | Allowed (* lint: allow D12 oracle: test/test_lint.ml "typed fixture golden" *)

type r = {
  read : int;
  pattern_read : int;
  never_read : int;
  kept_by_with : int;
  test_read : int;
}
