(* OCaml 5 backend: real domains. See par_fallback.ml for the 4.14
   sequential twin; the two must expose identical signatures.

   Determinism note: nothing in here may influence simulation output.
   Workers claim items dynamically from a shared counter, so which
   worker runs an item depends on timing, but every item owns disjoint
   state: scheduling can reorder wall-clock execution, never the
   per-item event streams. *)

let multicore = true

let recommended_domains () = Domain.recommended_domain_count ()

(* Domain-local "current logical shard" context: the epoch scheduler sets
   it around each shard's slice so layers below (Obs sinks, context-aware
   clocks) can tell whose stream they are on without threading an argument
   through every call. *)
module Ctx = struct
  let key : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let set v = Domain.DLS.set key v

  let get () = Domain.DLS.get key
end

module Pool = struct
  type job = { f : int -> unit; n : int; next : int Atomic.t (* next unclaimed item *) }

  type t = {
    size : int; (* workers including the calling thread *)
    mutable workers : unit Domain.t array;
    m : Mutex.t;
    cv : Condition.t;
    mutable job : job option;
    mutable generation : int; (* bumped per run; workers wait on it *)
    mutable done_count : int;
    mutable stop : bool;
  }

  (* Claim items until none is left: a worker that finishes a light
     shard takes the next one instead of idling behind a heavy one. *)
  let run_slice { f; n; next } =
    let i = ref (Atomic.fetch_and_add next 1) in
    while !i < n do
      f !i;
      i := Atomic.fetch_and_add next 1
    done

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
        run_slice job;
        Mutex.lock t.m;
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
        stop = false;
      }
    in
    t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker t));
    t

  let size t = t.size

  let run t ~n f =
    if t.size = 1 || n <= 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let job = { f; n; next = Atomic.make 0 } in
      Mutex.lock t.m;
      t.job <- Some job;
      t.done_count <- 0;
      t.generation <- t.generation + 1;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      run_slice job;
      (* Barrier: wait for every helper before returning; the join gives
         the caller a happens-before edge over all shard mutations. *)
      Mutex.lock t.m;
      while t.done_count < t.size - 1 do
        Condition.wait t.cv t.m
      done;
      t.job <- None;
      Mutex.unlock t.m
    end

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
