(** The per-operator time-space (TS) list (§4.2, §4.3).

    A TS list tracks the active indices for which an operator is merging
    arriving summary tuples. It holds non-overlapping entries sorted by
    interval start (a sorted array internally: inserts binary-search their
    slot, and the exact-match case merges in place); each entry is a
    potential final value.

    Insertion follows §4.2 exactly:
    - no overlap: the summary becomes a new entry;
    - exact index match: values are merged ([Op.merge]), counts and
      provenance add, and the entry keeps its original eviction deadline
      (the timeout is set by the {e first} tuple for an index, §4.3);
    - partial overlap between tuples [T1] and [T2]: a new tuple [T3]
      covering [\[max tb, min te)] holds [merge T1 T2]; the non-overlapping
      regions retain their initial values with shrunk intervals — so any
      given interval of time counts each value once.

    Eviction deadlines are absolute local times supplied by the caller,
    computed as [netDist - T.age] from the operator's latency EWMA (§4.3).
    Split residue entries inherit their source entry's deadline.

    Each merge into an existing entry extends its deadline to at least
    [now + quiet_guard], never beyond [creation + hard_cap]: eviction waits
    for quiescence per window. This is a deliberate strengthening of the
    paper's first-arrival-only timeout, which is unstable under dynamic
    striping (see DESIGN.md).

    Age bookkeeping implements §5's eviction rule: each entry accumulates
    count-weighted [age - arrival_local]; when evicted at local time [now],
    the emitted summary's age is the weighted average
    [(acc + count * now) / count] — the average age of its constituents
    including their residence time here, "weighting the tuple age towards
    the majority of its constituent data". *)

type t

val create :
  ?extend_boundaries:bool -> ?quiet_guard:float -> ?hard_cap:float -> op:Op.impl -> unit -> t
(** [extend_boundaries] enables the tuple-window boundary semantics of
    §4.3: a boundary whose interval starts exactly at an entry's end
    extends that entry's validity instead of opening a new one. Time
    windows leave it off (default) — their boundaries are slot-aligned
    summaries that merely carry completeness counts. *)

val insert : t -> now:float -> deadline:float -> Summary.t -> unit
(** [now] is the operator's current local time (arrival time); [deadline]
    the absolute local eviction time to use if this summary opens a new
    entry. *)

val next_deadline : t -> float
(** Earliest eviction deadline across entries; [infinity] when empty.
    O(1) and allocation-free: the minimum is maintained incrementally, so
    callers may re-arm timers after every insert. *)

val pop_due : t -> now:float -> Summary.t list
(** Remove and return (in interval order) all entries whose deadline has
    passed, as summaries with recomputed ages. *)

val force_pop : t -> now:float -> Summary.t list
(** Evict everything regardless of deadline (used at query removal). *)

val length : t -> int

val entries : t -> (Index.t * Value.t * int * float) list (* lint: allow D11 oracle: test/test_ts_list_diff.ml "differential: random overlaps" *)
(** (index, partial value, count, deadline) snapshots, for inspection. *)
