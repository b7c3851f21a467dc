(** A centralized stream processor (the StreamBase stand-in of §5).

    Every source ships raw tuples — stamped with its {e local} clock — to
    one machine. Arrivals pass through a {!Bsort} reorder buffer; the
    sorted-ish output is folded into tumbling windows by timestamp. A
    window is reported once a released tuple's timestamp moves past its
    end (the stream is presumed ordered after BSort). Because the buffer
    is a {e fixed} 5 000 tuples, result latency stays nearly constant under
    clock offset while true completeness degrades — the "Streambase"
    series of Figures 9 and 10. *)

type result = {
  slot : int; (** Window index by source timestamps. *)
  value : Mortar_core.Value.t; (** Finalized aggregate. *)
  count : int; (** Tuples included. *)
  prov : (int * int) list; (** (true slot, tuples) when tracked. *)
  closed_at : float; (** Harness time the window was reported. *)
}

type t

val create :
  op:Mortar_core.Op.spec -> slide:float -> ?bsort_capacity:int -> unit -> t
(** [slide] is the tumbling-window width in seconds; [bsort_capacity]
    defaults to 5000 (§5). *)

val push : t -> now:float -> ts:float -> ?true_slot:int -> Mortar_core.Value.t -> unit
(** One raw tuple: [ts] is the source's local timestamp, [now] the
    processor's arrival clock (used only for [closed_at]). *)

val drain : t -> now:float -> unit
(** Flush the reorder buffer and close all windows (end of run). *)

val on_result : t -> (result -> unit) -> unit

val results : t -> result list (* lint: allow D11 oracle: test/test_central_wifi.ml "processor windows" *)
(** All reported windows, oldest first. *)
