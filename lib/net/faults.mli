(** Declarative, deterministic fault injection for the simulated network.

    The paper's headline claims concern behaviour {e under failure}
    (§5, §7): node churn, message loss, and clock pathology. This module
    gives the simulator a first-class fault model beyond the transport's
    single global loss rate: a set of {e conditions}, each scoped to a
    directed (or symmetric) pair of host sets, that the transport consults
    on every send. Conditions compose — a message is dropped if any active
    condition drops it, and extra delays add up.

    Conditions:
    - {e cuts / partitions}: all messages between two host sets are
      dropped, modelling a stub domain losing its transit uplink; heal by
      clearing the condition;
    - {e asymmetric i.i.d. loss}: a loss rate applied to one direction of
      a host-set pair only;
    - {e Gilbert–Elliott bursty loss}: a two-state Markov chain per
      (src, dst) pair, advanced per message, with separate loss rates in
      the good and bad states — the classic model for correlated loss;
    - {e jitter}: uniform extra delay on a host-set pair; because the
      engine delivers in timestamp order, jittered messages naturally
      reorder.

    Node crash–recover and correlated stub kills are scheduled at the
    emulation layer ({!Mortar_emul.Deployment.schedule_faults}), which can
    reach peer state; this module is purely link-level.

    All randomness flows through the [rng] supplied at creation, so a
    fault schedule is exactly reproducible from a seed. *)

type t

type id
(** Names an active condition so it can be healed with {!clear}. *)

type decision = { drop : bool; extra_delay : float }

val create : hosts:int -> rng:Mortar_util.Rng.t -> unit -> t
(** A fault table over hosts [0 .. hosts - 1] with no active
    conditions. *)

val shard_view : t -> rng:Mortar_util.Rng.t -> t
(** A per-shard view of the same fault table: the condition set (and id
    counter) is shared — install/{!clear} through any view and all see
    it — while randomness and Gilbert–Elliott chain state are private to
    the view. The sharded transport gives each
    shard its own view so concurrent {!decide} calls never race and each
    shard's draw stream is independent of the domain count. Chains
    become per (condition, src, dst, {e deciding shard}); since a given
    (src, dst) pair is always decided by src's shard, per-pair chain
    semantics are preserved. *)

(** {1 Installing conditions}

    Host-set arguments are lists of host indices. [sym] (default [false])
    applies the condition to both directions of the pair. *)

val cut : t -> src:int list -> dst:int list -> id (* lint: allow D11 test-only, deletion deferred: test/test_faults.ml "cut and heal" *)
(** Drop every message from a host in [src] to a host in [dst]. *)

val partition : t -> a:int list -> b:int list -> id
(** Bidirectional {!cut}: no message crosses between [a] and [b] in either
    direction until {!clear}ed. *)

val isolate : t -> int list -> id
(** {!partition} between the given set and every other host: cut a stub
    from the transit core. *)

val loss : t -> ?sym:bool -> src:int list -> dst:int list -> rate:float -> unit -> id
(** I.i.d. loss with probability [rate] on the scoped direction(s). *)

val bursty :
  t ->
  ?sym:bool ->
  ?loss_good:float ->
  src:int list ->
  dst:int list ->
  p_enter:float ->
  p_exit:float ->
  loss_bad:float ->
  unit ->
  id
(** Gilbert–Elliott loss: each scoped (src, dst) pair carries a two-state
    chain, advanced once per message ([p_enter]: good→bad, [p_exit]:
    bad→good), dropping with [loss_bad] in the bad state and [loss_good]
    (default [0.]) in the good state. *)

val jitter : t -> ?sym:bool -> ?prob:float -> src:int list -> dst:int list -> extra:float -> unit -> id
(** With probability [prob] (default [1.]), add a uniform extra delay in
    [\[0, extra\]] seconds to a scoped message. *)

(** {1 Healing} *)

val clear : t -> id -> unit
(** Remove a condition; unknown or already-cleared ids are a no-op. *)

val clear_all : t -> unit (* lint: allow D11 test-only, deletion deferred: test/test_faults.ml "loss rates" *)

val active : t -> int (* lint: allow D11 oracle: test/test_faults.ml "isolate" *)
(** Number of currently active conditions. *)

(** {1 The transport hook} *)

val pass : decision
(** The no-op decision: not dropped, no extra delay. Shared so the
    no-faults send path allocates nothing. *)

val decide : t -> src:int -> dst:int -> decision
(** Evaluate every active condition against one message. Advances
    Gilbert–Elliott chains and draws loss/jitter randomness, so call
    exactly once per send. With no active conditions this is O(1).
    Outcomes are counted only in the global [faults.*] Obs counters. *)
