(* D6 positive: raw multicore primitives outside lib/par. Any of these
   in simulation code can race with shard execution and break the
   deterministic epoch barrier. *)

let counter = Atomic.make 0

let worker () = Atomic.incr counter

(* OCaml 4.14 has no Domain, and its Mutex is in the threads library:
   the multicore copy of this file holds those cases. *)
