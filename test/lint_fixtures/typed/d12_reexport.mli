(* D12 fixture: a re-export declares nothing of its own; building
   [Via_reexport] through it builds [D12_api.Via_reexport]. *)

type shape = D12_api.shape = Built | Only_matched | Test_built | Via_reexport | Allowed
