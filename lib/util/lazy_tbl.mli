(** A [Hashtbl] that is allocated on its first write.

    Most of a peer's bookkeeping tables (removal seqnos, pending view
    requests, the reliable control plane's retransmit and duplicate
    tables, ...) stay empty on most hosts for the whole run. An empty
    [Hashtbl.create n] still costs its bucket array; this wrapper costs
    three words until something is stored. The table is then created with
    the size given to {!create}, so bucket layout and iteration order are
    exactly those of a [Hashtbl.create size] that saw the same writes.

    Only the subset of [Hashtbl] the peer uses is offered. Reads of an
    unallocated table behave as reads of an empty one and allocate
    nothing. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create size] records [size] for the eventual [Hashtbl.create]; it
    allocates no table. *)

val allocated : ('k, 'v) t -> bool (* lint: allow D11 oracle: test/test_util.ml "lazy_tbl = Hashtbl" *)
(** Whether a write has created the underlying table since {!create}. *)

val length : ('k, 'v) t -> int

val find_opt : ('k, 'v) t -> 'k -> 'v option

val mem : ('k, 'v) t -> 'k -> bool

val replace : ('k, 'v) t -> 'k -> 'v -> unit
(** Creates the table if needed, then [Hashtbl.replace]. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Never allocates: removing from an unallocated table is a no-op. An
    allocated table stays allocated when it empties. *)

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Hash order, as [Hashtbl.fold]: sort anything that escapes (lint D3). *)
