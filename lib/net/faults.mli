(** Declarative, deterministic fault injection for the simulated network.

    The paper's headline claims concern behaviour {e under failure}
    (§5, §7): node churn, message loss, and clock pathology. This module
    gives the simulator a fault model beyond the transport's single
    global loss rate: a set of {e conditions}, each scoped to a pair of
    host sets, that the transport consults on every send. Conditions
    compose: a message is dropped if any active condition drops it.

    Conditions:
    - {e cuts}: {!isolate} drops every message between a host set and
      the rest, both directions, modelling a stub domain losing its
      transit uplink; heal by clearing the condition;
    - {e Gilbert–Elliott bursty loss}: a two-state Markov chain per
      (src, dst) pair of one direction, advanced per message, with
      separate loss rates in the good and bad states — the classic model
      for correlated loss.

    Node crash–recover and correlated stub kills are scheduled at the
    emulation layer ({!Mortar_emul.Deployment.schedule_faults}), which can
    reach peer state; this module is purely link-level.

    All randomness flows through the [rng] supplied at creation, so a
    fault schedule is exactly reproducible from a seed. *)

type t

type id
(** Names an active condition so it can be healed with {!clear}. *)

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

    Host-set arguments are lists of host indices. *)

val isolate : t -> int list -> id
(** Cut the given hosts from every other host, both directions, until
    {!clear}ed: cut a stub from the transit core. *)

val bursty :
  t ->
  ?loss_good:float ->
  src:int list ->
  dst:int list ->
  p_enter:float ->
  p_exit:float ->
  loss_bad:float ->
  unit ->
  id
(** Gilbert–Elliott loss on src→dst: each scoped (src, dst) pair carries
    a two-state chain, advanced once per message ([p_enter]: good→bad,
    [p_exit]: bad→good), dropping with [loss_bad] in the bad state and
    [loss_good] (default [0.]) in the good state. *)

(** {1 Healing} *)

val clear : t -> id -> unit
(** Remove a condition; unknown or already-cleared ids are a no-op. *)

val active : t -> int (* lint: allow D11 oracle: test/test_faults.ml "isolate" *)
(** Number of currently active conditions. *)

(** {1 The transport hook} *)

val decide : t -> src:int -> dst:int -> bool
(** Whether one message is dropped: evaluates the active conditions in
    install order up to the first that drops it. Advances
    Gilbert–Elliott chains and draws loss randomness, so call exactly
    once per send. With no active conditions this is O(1). Outcomes are
    counted only in the global [faults.*] Obs counters. *)
