(* Blocks are told apart by address. OCaml 5's major heap never moves a
   block, and [measure] runs a full major collection first, so every
   block it can reach sits in the major heap for the whole walk. The
   address is read as [p lsr 1] of the pointer's bits: a tagged int the
   GC never mistakes for a pointer, unique per block. *)
let addr (o : Obj.t) : int = (Obj.magic o : int) lsr 1

(* Open-addressing set of addresses; 0 marks an empty slot. *)
type set = { mutable keys : int array; mutable n : int }

let set () = { keys = Array.make 4096 0; n = 0 }

let slot keys a =
  let mask = Array.length keys - 1 in
  let rec probe i = if keys.(i) = 0 || keys.(i) = a then i else probe ((i + 1) land mask) in
  probe (Hashtbl.hash a land mask)

let mem s a = s.keys.(slot s.keys a) = a

let rec add s a =
  if 2 * (s.n + 1) > Array.length s.keys then begin
    let old = s.keys in
    s.keys <- Array.make (2 * Array.length old) 0;
    s.n <- 0;
    Array.iter (fun k -> if k <> 0 then ignore (add s k)) old
  end;
  let i = slot s.keys a in
  if s.keys.(i) = a then false
  else begin
    s.keys.(i) <- a;
    s.n <- s.n + 1;
    true
  end

type row = { label : string; words : int; boxed_float_words : int }

(* [Value.Float f] is a one-field block of tag 2 around a boxed float:
   an operator's data, not a field of the host's own records. *)
let payload_float parent = Obj.is_block parent && Obj.tag parent = 2 && Obj.size parent = 1

(* Fields [0, start) of a closure are code pointers and the closure
   info word; the environment follows (OCaml 5 closure layout). *)
let env_start c = (Obj.obj (Obj.field c 1) : int) land ((1 lsl 55) - 1)

(* Words and boxed-float words of the blocks reachable from [roots] that
   [seen] does not hold yet, without entering [stop]; adds them to
   [seen]. *)
let walk ~stop seen roots =
  let words = ref 0 and floats = ref 0 in
  let stack = ref [] in
  let push parent o =
    if Obj.is_block o then begin
      let a = addr o in
      if (not (mem stop a)) && add seen a then stack := (parent, o) :: !stack
    end
  in
  (* A row's own roots are walked even when a later row names them too. *)
  List.iter
    (fun o -> if Obj.is_block o && add seen (addr o) then stack := (Obj.repr 0, o) :: !stack)
    roots;
  let rec drain () =
    match !stack with
    | [] -> ()
    | (parent, o) :: rest ->
      stack := rest;
      let tag = Obj.tag o and size = Obj.size o in
      (* An infix pointer points into a closure block, which is counted
         only when reached through its start. *)
      if tag <> Obj.infix_tag then begin
        words := !words + size + 1;
        if tag = Obj.double_tag then begin
          if not (payload_float parent) then floats := !floats + size + 1
        end
        else if tag = Obj.closure_tag then
          for i = env_start o to size - 1 do
            push o (Obj.field o i)
          done
        else if tag < Obj.no_scan_tag then
          for i = 0 to size - 1 do
            push o (Obj.field o i)
          done
      end;
      drain ()
  in
  drain ();
  (!words, !floats)

let measure rows =
  Gc.full_major ();
  let seen = set () in
  (* A row counts what no earlier row reached and stops at the roots of
     later rows, so a back pointer (a callback closing over the whole
     deployment, say) does not pull a later row's state forward. *)
  let rec go = function
    | [] -> []
    | (label, roots) :: later ->
      let stop = set () in
      List.iter
        (fun (_, rs) ->
          List.iter (fun o -> if Obj.is_block o then ignore (add stop (addr o))) rs)
        later;
      let words, boxed_float_words = walk ~stop seen roots in
      { label; words; boxed_float_words } :: go later
  in
  go rows
