let called = Lint_typed_fixtures.D11_api.test_only 1
let test_built = Lint_typed_fixtures.D12_api.Test_built
let test_read (r : Lint_typed_fixtures.D12_api.r) = r.Lint_typed_fixtures.D12_api.test_read
