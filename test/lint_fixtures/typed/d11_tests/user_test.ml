let called = Lint_typed_fixtures.D11_api.test_only 1
