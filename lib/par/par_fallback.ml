(* OCaml 4.14 backend: no domains, no threads. Same signature as
   par_multicore.ml; Pool.run executes every item on the calling thread
   in index order, and Ctx is a plain ref (a single thread cannot see
   anyone else's context). Simulations built on the sharded runtime
   produce byte-identical output on either backend: which worker runs an
   item, and in what order (the multicore backend hands items out from a
   shared counter), only affects wall-clock interleaving, never per-item
   event streams. *)

let multicore = false

let recommended_domains () = 1

module Ctx = struct
  let current : int option ref = ref None

  let set v = current := v

  let get () = !current
end

module Pool = struct
  type t = unit

  let create ~domains:_ = ()

  let size () = 1

  (* Each item runs with the context naming it, cleared on every exit;
     the first (lowest) item that raises ends the run. *)
  let run () ~n f =
    for i = 0 to n - 1 do
      Fun.protect ~finally:(fun () -> Ctx.set None) (fun () -> Ctx.set (Some i); f i)
    done

  let shutdown () = ()
end
