let by_outside = Lint_typed_fixtures.D11_api.via_outside 1
let by_twin = Twin.twin_value
let by_stale = Stale.has_caller 1
let by_stale_d12 = Stale.Built_outside
