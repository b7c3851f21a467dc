(** Logical query specifications for the multi-query planner.

    A [Spec.t] is what an administrator submits: "aggregate stream
    [source] with [op] over a tumbling [window] across this publisher
    population, deliver results to [subscriber]". The planner's sharing
    rule works on the {e canonical key} — everything except the query
    name and the subscriber — so any two specs that aggregate the same
    data the same way share one physical tree set, and results fan out
    to each subscriber (Benoit et al., "Resource Allocation for Multiple
    Concurrent In-Network Stream-Processing Applications": operator
    reuse across concurrent applications). *)

type t = private {
  name : string;  (** Unique logical query name. *)
  source : string;  (** Source stream each publisher feeds. *)
  op : Mortar_core.Op.spec;
  window : float;  (** Tumbling window, seconds. *)
  publishers : int array;  (** Sorted, duplicate-free host ids. *)
  subscriber : int;  (** Host the finished results are delivered to. *)
}

val make :
  name:string ->
  source:string ->
  op:Mortar_core.Op.spec ->
  window:float ->
  publishers:int array ->
  subscriber:int ->
  t
(** Sorts and dedups [publishers].
    @raise Invalid_argument on an empty publisher set or a non-positive
    window. *)

val canonical_key : t -> string
(** Sharing identity: identical keys mean the two specs can be served by
    the same physical tree set. Covers (source, op, window, publishers)
    — not the name, not the subscriber. *)

val physical_name : t -> string
(** Stable physical query name derived from the canonical key
    (["mq-<digest prefix>"]): every spec in one sharing class maps to the
    same physical name, and distinct classes collide with digest
    probability only. *)
