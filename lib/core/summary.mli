(** Summary tuples — the unit of data exchanged between operators (§4).

    A source operator merges raw tuples {e across time} into a summary
    (partial value) labelled with a validity interval; interior operators
    merge summaries with matching indices {e across space}. All tuples on
    the network are summaries.

    A summary carries:
    - its {!Index.t} (validity interval);
    - the partial value (an {!Op} partial — for an aggregation, a partial
      aggregate);
    - [count], the completeness metric: how many participants contributed
      (§4.3 — aggregate results include a completeness field, §7);
    - [age], seconds since inception including operator residence time and
      network latency (§4.3, §5);
    - [boundary], true for boundary tuples, which update completeness and
      extend indices but never carry values (their value is the operator's
      merge identity);
    - [prov], optional provenance: (true-window slot, tuple count) pairs
      used by the evaluation harness to measure {e true completeness}
      (§5); empty when tracking is off.

    Routing state (visited tree levels, TTL-down) lives in
    {!Msg.envelope}, not here: it belongs to a tuple in flight, and is
    reset when summaries are merged and re-emitted. *)

type t = {
  index : Index.t;
  value : Value.t;
  count : int;
  boundary : bool;
  age : float;
  hops : int; (** Overlay hops travelled so far; TS-list merging keeps the
                  count-weighted mean, so the root sees the average
                  constituent path length (the §7.2.2 metric). *)
  hops_max : int; (** Longest constituent path; merging takes the maximum —
                      under failures rerouted tuples lengthen this while
                      the mean can fall as deep subtrees drop out. *)
  prov : (int * int) list;
}

val make :
  index:Index.t ->
  value:Value.t ->
  count:int ->
  ?boundary:bool ->
  ?age:float ->
  ?hops:int ->
  ?hops_max:int ->
  ?prov:(int * int) list ->
  unit ->
  t

val boundary : index:Index.t -> identity:Value.t -> count:int -> age:float -> t

val merge_prov : (int * int) list -> (int * int) list -> (int * int) list
(** Pointwise addition of provenance maps. *)

val wire_size : t -> int
