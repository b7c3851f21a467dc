(* D7 negatives: captures that are safe by construction.

   [ob] is mutable (the batches have a mutable parity) but every use
   inside the worker flows through the sanctioned Shard accessors, whose
   drain gives cross-shard traffic its canonical merge order. [base] is
   an immutable capture. *)

module Par = Mortar_par.Par
module Shard = Mortar_sim.Shard

let fan_out pool (ob : int Shard.t) (base : float) =
  Par.Pool.run pool ~n:4 (fun i ->
      Shard.post ob ~src_shard:i ~dst_shard:0 ~time:(base +. float_of_int i) ~src:i ~dst:0
        ~kind:"data" i)
