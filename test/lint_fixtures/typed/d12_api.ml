type shape = Built | Only_matched | Test_built | Via_reexport | Allowed

type r = { read : int; pattern_read : int; never_read : int; kept_by_with : int; test_read : int }
