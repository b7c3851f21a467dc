(** A centralized stream processor (the StreamBase stand-in of §5).

    Every source ships raw tuples — stamped with its {e local} clock — to
    one machine. Arrivals pass through a {!Bsort} reorder buffer; the
    sorted-ish output is assigned to tumbling windows by timestamp. A
    window is reported once a released tuple's timestamp moves past its
    end (the stream is presumed ordered after BSort). Because the buffer
    is a {e fixed} 5 000 tuples, result latency stays nearly constant under
    clock offset while true completeness degrades — the "Streambase"
    series of Figures 9 and 10.

    Those figures score a result only by which true windows it covers
    and when it closes, so a report carries provenance and a close time
    and no aggregate value: the processor computes none. *)

type result = {
  prov : (int * int) list; (** (true slot, tuples), ascending by slot. *)
  closed_at : float; (** Harness time the window was reported. *)
}

type t

val create : slide:float -> on_result:(result -> unit) -> t
(** [slide] is the tumbling-window width in seconds; the reorder buffer
    holds 5000 tuples (§5). [on_result] sees every reported window,
    oldest first. *)

val push : t -> now:float -> ts:float -> true_slot:int -> unit
(** One raw tuple: [ts] is the source's local timestamp, [true_slot] the
    window it was really produced in, and [now] the processor's arrival
    clock (used only for [closed_at]). *)

val drain : t -> now:float -> unit
(** Flush the reorder buffer and close all windows (end of run). *)
