(** A peer's heartbeat partners: one shared table for all its queries
    (the paper's sub-linear heartbeat sharing, Fig 13).

    Each partner carries a refcount (how many installed views list it as
    a neighbor), and three local clock readings:
    - [last_heard], optimistic: stamped by any receipt, and also by
      {!retain} so that a new partner gets a full timeout window before
      it is declared dead;
    - [last_confirmed], pessimistic: only an actual receipt stamps it —
      repair completion requires a confirmed-live parent;
    - [last_reconcile], the last digest reconciliation round with it.

    The layout is flat: partner ids sorted in an [int array] and found by
    binary search, the refcount in an [int array] beside it, and the
    three clocks in unboxed [float array] columns. Stamping a partner is
    one probe and allocates nothing; iteration is in ascending id order,
    so heartbeat targets need no sort. The arrays grow by doubling from
    four slots; an empty set holds none. *)

type t

val create : unit -> t

val length : t -> int
(** Entries, whatever their refcount. *)

val retain : t -> int -> now:float -> unit
(** Add a reference, creating the entry if needed, and stamp
    [last_heard]. *)

val release : t -> int -> unit
(** Drop a reference; the entry goes when its refcount reaches zero. *)

val heard : t -> int -> now:float -> unit
(** A message from the node: stamp both liveness clocks of an existing
    entry. Unknown nodes are ignored. *)

val heartbeat : t -> int -> now:float -> unit
(** A heartbeat from the node: like {!heard}, but an unknown sender gets
    a zero-refcount entry, so its liveness is tracked symmetrically. *)

val reconcile_due : t -> int -> now:float -> min_gap:float -> bool
(** Whether a reconciliation round with the node may start now (at least
    [min_gap] since the last one); when it may, [last_reconcile] is
    stamped. An unknown node gets a zero-refcount entry first, with
    [last_heard = now]. *)

val alive : t -> int -> now:float -> timeout:float -> bool
(** Liveness belief: heard from less than [timeout] (the failure-detection
    window, local seconds) before [now]; [true] for unknown nodes. *)

val confirmed_alive : t -> int -> now:float -> timeout:float -> bool
(** Heard from within the timeout since the last {!retain}; [false] for
    unknown nodes. *)

val iter_targets : (int -> unit) -> t -> unit
(** The heartbeat targets — entries with a positive refcount — in
    ascending id order. [f] must not modify the set. *)

val sweep : t -> now:float -> horizon:float -> int
(** Remove zero-refcount entries silent for more than [horizon]
    ([now -. last_heard > horizon]); returns how many went. *)
