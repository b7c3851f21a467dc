(** Live-state census: how many heap words each part of a program's
    state holds, with shared blocks counted once.

    A census is a list of rows, each a label and its root values. Rows
    are walked in order over one shared set of visited blocks: a row
    counts the blocks reachable from its roots that no earlier row
    reached, and it does not enter the roots of later rows. Order rows
    from leaves to containers, so each container row counts only its
    own shell, and name a catch-all last. Run it between simulation
    steps, from one domain: it starts with a full major collection and
    reads block addresses, which OCaml 5 never moves afterwards. *)

type row = {
  label : string;
  words : int;  (** Heap words, headers included. *)
  boxed_float_words : int;
      (** Words of boxed floats among them (two per float), not counting
          the float inside an operator value ([Value.Float]). *)
}

val measure : (string * Obj.t list) list -> row list
