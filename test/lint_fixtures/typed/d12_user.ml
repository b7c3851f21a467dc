(* D12 fixture: the production users of d12_api.mli. Matching a
   constructor does not build it; building a record, or keeping a field
   in a [with] copy, does not read it. *)

let built = D12_api.Built
let via_reexport = D12_reexport.Via_reexport

let is_only_matched = function D12_api.Only_matched -> true | _ -> false

let read (r : D12_api.r) = r.D12_api.read
let pattern_read { D12_api.pattern_read; _ } = pattern_read
let copy (r : D12_api.r) = { r with D12_api.read = 0 }
