(** The multi-query plan registry: refcounted shared trees.

    Admission and retirement of logical queries go through here. The
    registry maps every logical {!Spec.t} to its sharing class, keeps one
    physical placement per class with the list of logical queries riding
    on it (the refcount), and emits the {e physical} actions the caller
    applies to the deployment ({!Mortar_core.Peer.install_query} at the
    root, result fan-out registration, removal when the last sharer
    leaves). A logical query leaves only through {!handle_loss}: when its
    subscriber dies, or when its class has no surviving publisher.

    It also owns churn-driven re-planning: when the caller's failure
    detector reports sustained node loss, {!handle_loss} re-plans only
    the affected classes over their surviving publishers — reusing the
    surviving root (and the physical query's name and sequence-number
    lineage) rather than rebuilding the workload from scratch. *)

type t

type action =
  | Install of {
      phys : string;
      root : int;
      meta : Mortar_core.Query.meta;
      treeset : Mortar_overlay.Treeset.t;
      subscribers : int list;
    }
      (** New physical query: install [meta]/[treeset] at [root] and
          register result fan-out to [subscribers]. *)
  | Update_fanout of { phys : string; root : int; subscribers : int list }
      (** Sharing changed (a logical query joined or left a surviving
          class): refresh the root's fan-out list only. *)
  | Remove of { phys : string; root : int }
      (** The class was retired (no live subscriber or no surviving
          publisher): issue the physical removal at [root] and clear its
          fan-out. *)
  | Replan of {
      phys : string;
      old_root : int;
      root : int;
      meta : Mortar_core.Query.meta;
      treeset : Mortar_overlay.Treeset.t;
      subscribers : int list;
    }
      (** Churn response: re-install the physical query (same name,
          higher seqno) over surviving publishers. [root = old_root]
          whenever the old root survived. *)

val create : ctx:Place.ctx -> unit -> t

val add_batch : t -> Spec.t list -> action list
(** Admit a batch of logical queries: new sharing classes are planned
    jointly ({!Place.plan}, against the operator load already charged by
    live placements); queries joining an existing class just bump its
    refcount. Actions come out in canonical key order.
    @raise Invalid_argument on a duplicate logical name. *)

val handle_loss : t -> dead:int list -> action list
(** Incremental re-plan after sustained node loss: classes with no dead
    member keep their placement untouched; affected classes are re-sited
    over survivors (root reused when alive); classes with no surviving
    publisher are retired with {!action-Remove}. Logical queries whose
    {e subscriber} is in [dead] are retired too — dead hosts never
    appear in an emitted fan-out list, and a rejoining host must
    re-subscribe through {!add_batch}; a class left with no live
    subscriber is retired even when publishers survive. *)

val physical_count : t -> int

val replans : t -> int
(** Physical re-installs issued by {!handle_loss} so far. *)

val mapping : t -> (string * string * int) list
(** [(logical name, physical name, root)] for every live logical query,
    name-sorted. *)
