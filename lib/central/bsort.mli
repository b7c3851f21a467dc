(** A bounded reorder buffer — the BSort operator of the commercial
    centralized stream processor the paper compares against in §5.

    Tuples enter with (possibly out-of-order) timestamps; the buffer holds
    up to [capacity] of them, and whenever it is full releases the tuple
    with the smallest timestamp. The output is sorted as long as disorder
    does not exceed the buffer depth; beyond that, late tuples emerge out
    of order and downstream windows mis-assign them — exactly the failure
    mode Figures 9/10 measure under clock offset. The paper configured the
    buffer to hold 5 000 tuples. *)

type 'a t

val create : capacity:int -> 'a t

val push : 'a t -> ts:float -> 'a -> (float * 'a) option
(** Insert; returns the evicted minimum-timestamp tuple when the buffer
    was full. *)

val flush : 'a t -> (float * 'a) list
(** Drain remaining tuples in timestamp order. *)

val length : 'a t -> int (* lint: allow D11 oracle: test/test_central_wifi.ml "bsort length" *)
