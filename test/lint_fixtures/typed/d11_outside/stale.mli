val has_caller : int -> int (* lint: allow D11 oracle: test/test_lint.ml "typed fixture golden" *)
