type r = { label_only : int }

let no_caller x = x
let test_only x = x
let label_only r = r.label_only
let via_dune_alias x = x
let via_local_alias x = x
let via_let_module x = x
let via_open x = x
let via_outside x = x
let allowed x = x
