(** Shared infrastructure for the paper-reproduction experiments.

    Each [Fig*] module reproduces one figure from the paper's evaluation
    as an {!experiment}; [Registry.all] lists them in figure order, and
    the CLI lists and runs that list. Experiments print aligned text
    tables (one row per plotted point) so their output can be diffed
    against EXPERIMENTS.md. *)

type experiment = {
  id : string; (** e.g. ["fig12"]. *)
  title : string;
  paper_claim : string; (** The shape the paper reports, for the output header. *)
  run : quick:bool -> unit;
      (** [quick] runs a scaled-down configuration (fewer nodes/trials,
          shorter simulations) for smoke-testing and benches. *)
}

(** {1 Output helpers} *)

val header : experiment -> unit
(** Print the experiment banner. *)

val table : columns:string list -> (unit -> string list list) -> unit
(** Print an aligned table; the thunk supplies rows. *)

val cell_f : float -> string
(** Format a float cell ("12.34"). *)

val cell_pct : float -> string
(** Format a fraction as a percentage cell ("98.7%"). *)
