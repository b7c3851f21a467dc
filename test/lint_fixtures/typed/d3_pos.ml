(* D3 positive: hash-order key lists escaping unsorted. *)

let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl []

let values tbl =
  let acc = ref [] in
  Hashtbl.iter (fun _ v -> acc := v :: !acc) tbl;
  !acc
(* Labeled callbacks (MoreLabels style) escape hash order just the same. *)
open MoreLabels
let keys_labeled tbl = Hashtbl.fold ~f:(fun ~key ~data:() acc -> key :: acc) ~init:[] tbl
open Stdlib
(* to_seq materialized into a list or array: direct, piped, and piped
   through Seq combinators. *)
let dump tbl = List.of_seq (Hashtbl.to_seq tbl)

let dump_keys tbl = Hashtbl.to_seq_keys tbl |> List.of_seq

let dump_values tbl = Hashtbl.to_seq_values tbl |> Seq.map succ |> Array.of_seq

(* Not flagged: the escaping list is sorted at the call site... *)
let sorted_keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare

let sorted_dump tbl = Hashtbl.to_seq_keys tbl |> List.of_seq |> List.sort compare

(* ... or the fold is commutative (no list is built)... *)
let count tbl = Hashtbl.fold (fun _ n acc -> max n acc) tbl 0

(* ... or the sequence stays transient (never materialized). *)
let sum tbl = Seq.fold_left ( + ) 0 (Hashtbl.to_seq_values tbl)

(* The allocate-on-first-write wrapper iterates in hash order too. *)
let lazy_keys tbl = Mortar_util.Lazy_tbl.fold (fun k () acc -> k :: acc) tbl []
