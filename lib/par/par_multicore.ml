(* OCaml 5 backend: real domains. See par_fallback.ml for the 4.14
   sequential twin; the two must expose identical signatures.

   Determinism note: nothing in here may influence simulation output.
   Workers claim items dynamically from a shared counter, so which
   worker runs an item depends on timing, but every item owns disjoint
   state: scheduling can reorder wall-clock execution, never the
   per-item event streams. *)

let multicore = true

let recommended_domains () = Domain.recommended_domain_count ()

(* Domain-local "current logical shard" context: [Pool.run] sets it to
   the item's index around each item, so layers below (Obs sinks,
   context-aware clocks) can tell whose stream they are on without
   threading an argument through every call. *)
module Ctx = struct
  let key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let set v = Domain.DLS.set key v

  let get () = Domain.DLS.get key
end

module Pool = struct
  type job = { f : int -> unit; n : int; next : int Atomic.t (* next unclaimed item *) }

  (* An item's exception, with its index and backtrace. *)
  type failure = int * exn * Printexc.raw_backtrace

  let lowest (a : failure option) (b : failure option) =
    match (a, b) with
    | Some (i, _, _), Some (j, _, _) -> if j < i then b else a
    | None, x | x, None -> x

  type t = {
    size : int; (* workers including the calling thread *)
    mutable workers : unit Domain.t array;
    m : Mutex.t;
    cv : Condition.t;
    mutable job : job option;
    mutable generation : int; (* bumped per run; workers wait on it *)
    mutable done_count : int;
    mutable failed : failure option; (* the helpers' lowest, this run *)
    mutable stop : bool;
  }

  (* Claim items until none is left: a worker that finishes a light
     shard takes the next one instead of idling behind a heavy one. Each
     item runs with the context naming it, cleared on every exit. An
     item that raises ends the claims, and its failure is returned, not
     raised, so the worker still reaches the barrier. Items are claimed
     in index order, so every item below a failed one has run, and the
     lowest failed index does not depend on scheduling. *)
  let run_slice { f; n; next } =
    let failed = ref None in
    let i = ref (Atomic.fetch_and_add next 1) in
    while !i < n do
      Ctx.set (Some !i);
      (match f !i with
      | () -> ()
      | exception e ->
        failed := Some (!i, e, Printexc.get_raw_backtrace ());
        Atomic.set next n);
      Ctx.set None;
      i := Atomic.fetch_and_add next 1
    done;
    !failed

  let worker t () =
    let gen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.m;
      while (not t.stop) && (t.generation = !gen || t.job = None) do
        Condition.wait t.cv t.m
      done;
      if t.stop then begin
        Mutex.unlock t.m;
        running := false
      end
      else begin
        gen := t.generation;
        let job = Option.get t.job in
        Mutex.unlock t.m;
        let failed = run_slice job in
        Mutex.lock t.m;
        t.failed <- lowest t.failed failed;
        t.done_count <- t.done_count + 1;
        Condition.broadcast t.cv;
        Mutex.unlock t.m
      end
    done

  let create ~domains =
    (* Clamp to the hardware: domains beyond the core count only add
       scheduling and barrier overhead (the epoch loop hits the barrier
       thousands of times per run). Results cannot change — work items
       own disjoint state. *)
    let size = max 1 (min domains (Domain.recommended_domain_count ())) in
    let t =
      {
        size;
        workers = [||];
        m = Mutex.create ();
        cv = Condition.create ();
        job = None;
        generation = 0;
        done_count = 0;
        failed = None;
        stop = false;
      }
    in
    t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker t));
    t

  let size t = t.size

  (* A failed item's exception surfaces here, on the caller, after the
     barrier; of several, the one with the lowest index. *)
  let run t ~n f =
    let job = { f; n; next = Atomic.make 0 } in
    let failed =
      if t.size = 1 || n <= 1 then run_slice job
      else begin
        Mutex.lock t.m;
        t.job <- Some job;
        t.done_count <- 0;
        t.generation <- t.generation + 1;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        let mine = run_slice job in
        (* Barrier: wait for every helper before returning; the join
           gives the caller a happens-before edge over all shard
           mutations. *)
        Mutex.lock t.m;
        while t.done_count < t.size - 1 do
          Condition.wait t.cv t.m
        done;
        t.job <- None;
        let theirs = t.failed in
        t.failed <- None;
        Mutex.unlock t.m;
        lowest mine theirs
      end
    in
    match failed with None -> () | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt

  let shutdown t =
    if Array.length t.workers > 0 then begin
      Mutex.lock t.m;
      t.stop <- true;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      Array.iter Domain.join t.workers;
      t.workers <- [||]
    end
end
