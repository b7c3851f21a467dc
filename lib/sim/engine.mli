(** Discrete-event simulation engine.

    Virtual time is a float in seconds, starting at [0.]. Events posted
    for the same instant fire in posting order (ties broken by a
    monotonically increasing sequence number), which keeps runs
    deterministic. The engine underlies every experiment in the repository:
    it plays the role ModelNet + the ASyncCore event loop played in the
    paper's evaluation.

    Every event is one kind: a handler and its int argument, queued by
    {!post} and cancellable through the {!handle} it returns. The engine
    knows nothing about nodes or networks; higher layers
    ({!Mortar_net.Transport}, peers, failure schedules) are built from
    [post] alone. *)

type t

type handle [@@immediate]
(** A cancellation token for a queued event: an int packing the
    event's queue slot and sequence number, so it costs no allocation and
    goes stale once its event has left the queue. *)

val no_handle : handle
(** A handle that matches no event; cancelling it is a no-op. Use it as
    the "no timer armed" value of a handle field. *)

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val post : t -> at:float -> (int -> unit) -> int -> handle
(** [post t ~at f arg] runs [f arg] at absolute virtual time [at]; times
    in the past are clamped to [now t]. Allocation-free: the caller
    passes one preallocated [f] and names its own state with [arg] (the
    transport passes its in-flight message slot, a peer its host id).
    The handle cancels the event; callers that never cancel ignore
    it. *)

val cancel : t -> handle -> unit
(** [cancel t h] drops the event's handler at once. Its queue entry stays
    until it reaches the top, so {!next_time} still counts it. [h] must
    come from [t]. Cancelling a fired or cancelled event, or
    {!no_handle}, is a no-op. *)

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, or stop once virtual time would exceed [until].
    When stopped by [until], [now t] is set to [until] and remaining events
    stay queued. *)

val run_before : t -> float -> unit
(** [run_before t bound] fires every event with [time < bound] — strictly:
    an event at exactly [bound] stays queued — then sets [now t] to
    [bound]. The conservative epoch scheduler drives each shard's engine
    with this; cross-shard messages merged before the next epoch are
    stamped [>= bound] by the lookahead bound, so they land ahead of the
    clock, never behind it. *)

val next_time : t -> float
(** Time of the earliest queued event, or [infinity] on an empty queue.
    Includes cancelled-but-queued events, so it may under-estimate the
    next event that will actually fire — a safe lower bound for
    epoch-boundary computations. *)

val pending : t -> int (* lint: allow D11 oracle: test/test_sim.ml "engine pending counter" *)
(** Number of queued (uncancelled) events. O(1): the engine tracks
    cancellations live rather than scanning the queue. *)

val fired : t -> int
(** Total events executed — a progress/diagnostic counter. *)
