(* D7 positive: a shared Hashtbl captured by the worker closure handed
   to the pool — the exact cross-shard data race the rule exists to
   catch (concurrent Hashtbl.replace from several domains). *)

module Par = Mortar_par.Par

let leak pool (shared : (int, int) Hashtbl.t) =
  Par.Pool.run pool ~n:4 (fun i -> Hashtbl.replace shared i (i * i))

(* A mutable record type defined locally: capture is just as racy. *)
type counter = { mutable hits : int }

let leak_record pool (c : counter) =
  Par.Pool.run pool ~n:4 (fun _ -> c.hits <- c.hits + 1)

(* Another unit's mutable record, found by its full path. *)
let leak_cell pool (c : D7_cell_a.cell) = Par.Pool.run pool ~n:4 (fun _ -> D7_cell_a.bump c)
