type shape = D12_api.shape = Built | Only_matched | Test_built | Via_reexport | Allowed
