(** Byte-exact serialization shared by the sketch codecs.

    Every sketch serializes to one packed cell form (below), so a
    partial's wire form is a pure function of its cell contents — the
    property the cross-shard byte-identity tests lean on. Readers raise
    [Failure] with a [sketch:]-prefixed message on truncated or
    out-of-range input; the operator layer turns that into a
    {!Mortar_core.Value.Type_error} (a query fault, not a crash). *)

(** {1 Sequential reader}

    The decoders ([of_string]) read through this; they are the reference
    the packed kernels are tested against. *)

type reader

val reader : string -> reader

val fail : string -> 'a
(** [fail msg] raises [Failure ("sketch: " ^ msg)]. *)

val u8 : reader -> int

val u16 : reader -> int

val i64 : reader -> int
(** Seeds travel as 64 bits and must fit a non-negative native int. *)

val seed_at : string -> int -> int
(** [seed_at s pos] is {!i64} at a fixed offset (bounds-checked). *)

val expect_end : reader -> unit
(** Rejects trailing bytes — two distinct wire strings never decode to
    the same sketch. *)

(** {1 Packed cell form}

    [header] bytes of magic, parameters and a codec tag, then either the
    dense cells (tag 0, [cell_w] bytes each) or a [count_w]-byte count of
    (index, value) entries in strictly ascending index order (tag 1,
    [idx_w + cell_w] bytes each) — whichever is strictly smaller for the
    exact cell contents. Widths 1 and 2 are unsigned; width 4 is a
    signed 32-bit value. *)

type layout = {
  magic : char;
  name : string;  (** for error messages *)
  header : int;  (** bytes up to and including the codec tag *)
  count_w : int;
  idx_w : int;
  cell_w : int;
  sparse_min : int;  (** smallest value a sparse entry may carry *)
  cell_max : int;  (** largest value any cell may carry *)
  params : string -> int;
      (** Validates the parameter bytes of a string at least [header]
          long; returns the cell count. *)
}

val max_bytes : layout -> n:int -> int
(** Size of the dense form of [n] cells: the serialized-size cap. *)

val alloc : layout -> n:int -> nnz:int -> Bytes.t
(** The exactly-sized encoding of [n] cells of which [nnz] are non-zero,
    zero-filled, with magic, tag and sparse count written. The caller
    writes the parameter bytes and the cells. *)

val put_cell : layout -> Bytes.t -> k:int -> int -> int -> unit
(** [put_cell l o ~k i v] writes the [k]-th non-zero cell (index [i],
    value [v]) into [o] from {!alloc}. Raises [Failure] when [v] does
    not fit a 32-bit cell. *)

type op = Add | Sub | Max

val combine : layout -> op -> string -> string -> string
(** [combine l op a b] applies [op] cell-wise to two packed sketches and
    returns the packed result, without unpacking either. Two sparse
    operands are merge-joined over their entries twice: once to count
    the result's non-zero cells, once to write them into one
    exactly-sized buffer. A dense operand makes one register pass over a
    dense result, re-packed sparse only if that is smaller. Byte for
    byte the encoding of the decoded operands combined; raises [Failure]
    on exactly the inputs the decoder rejects, on mismatched parameters
    and on 32-bit overflow. *)

(** {1 The i32 grid of Count-Min and AGMS} *)

type grid = { rows : int; cols : int; seed : int; cells : int array }

type grid_kind = { layout : layout; check : rows:int -> cols:int -> seed:int -> unit }
(** One grid family: its magic byte, labels and parameter check. *)

val grid_kind : magic:char -> name:string -> rows_label:string -> cols_label:string -> grid_kind
(** Wire layout: magic rows:u8 cols:u16 seed:i64 tag:u8, then i32 cells
    (sparse: i32 count, i32 index/value pairs). Requires
    [0 < rows <= 255] and [0 < cols <= 65535]. *)

val grid_create : grid_kind -> rows:int -> cols:int -> seed:int -> grid

val grid_merge : grid_kind -> grid -> grid -> grid
(** Cell-wise sum into a fresh grid; raises [Failure] on mismatched
    parameters. *)

val grid_sub : grid_kind -> grid -> grid -> grid

val grid_alloc : grid_kind -> rows:int -> cols:int -> seed:int -> nnz:int -> Bytes.t
(** {!alloc} with the grid's parameter bytes written. *)

val grid_to_string : grid_kind -> grid -> string

val grid_of_string : grid_kind -> string -> grid
